//! DVFS: the operating-frequency knob of the paper (§2.4).
//!
//! The paper sweeps four frequency settings on the Atom C2758:
//! 1.2, 1.6, 2.0 and 2.4 GHz. Dynamic power scales with `V²·f`, so each level
//! carries a voltage drawn from a plausible Atom voltage/frequency table.

use std::fmt;

/// One of the four operating frequencies studied in the paper.
///
/// Ordering follows frequency, so `Frequency::F1_2 < Frequency::F2_4`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Frequency {
    /// 1.2 GHz — the minimum setting; all EDP figures in the paper are
    /// normalised against runs at this frequency.
    F1_2,
    /// 1.6 GHz.
    F1_6,
    /// 2.0 GHz.
    F2_0,
    /// 2.4 GHz — the maximum (and, per Table 2, almost always optimal under
    /// EDP) setting.
    F2_4,
}

impl Frequency {
    /// All four levels, ascending. This is the sweep order used by the
    /// brute-force oracle and by STP's config-space enumeration.
    pub const ALL: [Frequency; 4] = [
        Frequency::F1_2,
        Frequency::F1_6,
        Frequency::F2_0,
        Frequency::F2_4,
    ];

    /// Frequency in GHz.
    #[inline]
    pub fn ghz(self) -> f64 {
        match self {
            Frequency::F1_2 => 1.2,
            Frequency::F1_6 => 1.6,
            Frequency::F2_0 => 2.0,
            Frequency::F2_4 => 2.4,
        }
    }

    /// Frequency in cycles per second.
    #[inline]
    pub fn hz(self) -> f64 {
        self.ghz() * 1e9
    }

    /// Core supply voltage at this frequency (volts).
    ///
    /// The exact silicon values are not public; these are representative of
    /// Silvermont-class DVFS ladders and only their *relative* V²f scaling
    /// matters for EDP orderings.
    #[inline]
    pub fn voltage(self) -> f64 {
        match self {
            Frequency::F1_2 => 0.850,
            Frequency::F1_6 => 0.950,
            Frequency::F2_0 => 1.050,
            Frequency::F2_4 => 1.175,
        }
    }

    /// Relative dynamic-power factor `V²·f`, normalised so that 2.4 GHz = 1.
    #[inline]
    pub fn dynamic_factor(self) -> f64 {
        let v = self.voltage();
        let top = {
            let vt = Frequency::F2_4.voltage();
            vt * vt * Frequency::F2_4.ghz()
        };
        v * v * self.ghz() / top
    }

    /// The level index 0..=3 (ascending frequency).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Frequency::F1_2 => 0,
            Frequency::F1_6 => 1,
            Frequency::F2_0 => 2,
            Frequency::F2_4 => 3,
        }
    }

    /// Inverse of [`Frequency::index`]; returns `None` for out-of-range input.
    #[inline]
    pub fn from_index(i: usize) -> Option<Frequency> {
        Frequency::ALL.get(i).copied()
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}GHz", self.ghz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequencies_ascend() {
        let ghz: Vec<f64> = Frequency::ALL.iter().map(|f| f.ghz()).collect();
        assert_eq!(ghz, vec![1.2, 1.6, 2.0, 2.4]);
        for w in Frequency::ALL.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn voltage_monotone_in_frequency() {
        for w in Frequency::ALL.windows(2) {
            assert!(w[0].voltage() < w[1].voltage());
        }
    }

    #[test]
    fn dynamic_factor_normalised_and_monotone() {
        assert!((Frequency::F2_4.dynamic_factor() - 1.0).abs() < 1e-12);
        let mut prev = 0.0;
        for f in Frequency::ALL {
            assert!(f.dynamic_factor() > prev);
            prev = f.dynamic_factor();
        }
        // The ladder should give a meaningful dynamic range (paper relies on
        // low frequency being much cheaper).
        assert!(Frequency::F1_2.dynamic_factor() < 0.35);
    }

    #[test]
    fn index_round_trips() {
        for (i, f) in Frequency::ALL.iter().enumerate() {
            assert_eq!(f.index(), i);
            assert_eq!(Frequency::from_index(i), Some(*f));
        }
        assert_eq!(Frequency::from_index(4), None);
    }

    #[test]
    fn display_format() {
        assert_eq!(Frequency::F1_2.to_string(), "1.2GHz");
        assert_eq!(Frequency::F2_4.to_string(), "2.4GHz");
    }
}
