//! The four behaviour classes of §3.2.
//!
//! The paper characterises every application as compute-bound (C), hybrid
//! (H — a mix of compute and I/O), I/O-bound (I) or memory-bound (M), and
//! bases both the pairing decision tree and the per-class STP models on this
//! label.

use std::fmt;

/// Application behaviour class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AppClass {
    /// Compute-bound: high CPU-user utilisation, low iowait, low I/O
    /// bandwidth, low LLC MPKI (e.g. WordCount).
    C,
    /// Hybrid compute/I/O (e.g. TeraSort, Grep).
    H,
    /// I/O-bound: high iowait, high disk bandwidth, low CPU (e.g. Sort).
    I,
    /// Memory-bound: high LLC MPKI and large footprint (e.g. FP-Growth).
    M,
}

impl AppClass {
    /// All classes in the paper's enumeration order.
    pub const ALL: [AppClass; 4] = [AppClass::C, AppClass::H, AppClass::I, AppClass::M];

    /// Single-letter label used throughout the paper's tables.
    pub fn letter(self) -> char {
        match self {
            AppClass::C => 'C',
            AppClass::H => 'H',
            AppClass::I => 'I',
            AppClass::M => 'M',
        }
    }
}

impl fmt::Display for AppClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.letter())
    }
}

/// An unordered pair of classes, the unit of the paper's Fig 3 / Fig 5 / Table
/// 1 analyses. Normalised so that `ClassPair::new(M, C) == ClassPair::new(C,
/// M)`, printed in the paper's "C-M" style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassPair {
    /// The lexically smaller class.
    pub first: AppClass,
    /// The lexically larger class.
    pub second: AppClass,
}

impl ClassPair {
    /// Build a normalised pair.
    pub fn new(a: AppClass, b: AppClass) -> ClassPair {
        if a <= b {
            ClassPair {
                first: a,
                second: b,
            }
        } else {
            ClassPair {
                first: b,
                second: a,
            }
        }
    }

    /// All 10 unordered class pairs, in the order Table 1 lists them.
    pub fn all() -> Vec<ClassPair> {
        let mut v = Vec::with_capacity(10);
        for (i, &a) in AppClass::ALL.iter().enumerate() {
            for &b in &AppClass::ALL[i..] {
                v.push(ClassPair::new(a, b));
            }
        }
        v
    }
}

impl fmt::Display for ClassPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.first, self.second)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_is_unordered() {
        assert_eq!(
            ClassPair::new(AppClass::M, AppClass::C),
            ClassPair::new(AppClass::C, AppClass::M)
        );
        assert_eq!(ClassPair::new(AppClass::C, AppClass::M).to_string(), "C-M");
    }

    #[test]
    fn there_are_ten_pairs() {
        let all = ClassPair::all();
        assert_eq!(all.len(), 10);
        let uniq: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(uniq.len(), 10);
    }
}
