//! The tuning knobs of the paper (§2.4) and their search spaces.
//!
//! Per application: HDFS block size ∈ {64, 128, 256, 512, 1024} MB, mapper
//! count ∈ 1..=8, frequency ∈ {1.2, 1.6, 2.0, 2.4} GHz — the paper's
//! "160 possible cases … per application". For a co-located pair the mapper
//! counts additionally share the node's 8-core budget.

use ecost_sim::Frequency;
use std::fmt;

/// HDFS block size (§2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BlockSize {
    /// 64 MB — Hadoop 1.x default; the paper's EDP normalisation baseline.
    B64,
    /// 128 MB — Hadoop 2.x default (the "untuned" setting of §8).
    B128,
    /// 256 MB.
    B256,
    /// 512 MB.
    B512,
    /// 1024 MB.
    B1024,
}

impl BlockSize {
    /// All five studied sizes, ascending.
    pub const ALL: [BlockSize; 5] = [
        BlockSize::B64,
        BlockSize::B128,
        BlockSize::B256,
        BlockSize::B512,
        BlockSize::B1024,
    ];

    /// Size in MB.
    #[inline]
    pub fn mb(self) -> f64 {
        match self {
            BlockSize::B64 => 64.0,
            BlockSize::B128 => 128.0,
            BlockSize::B256 => 256.0,
            BlockSize::B512 => 512.0,
            BlockSize::B1024 => 1024.0,
        }
    }

    /// Level index 0..=4 (ascending).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            BlockSize::B64 => 0,
            BlockSize::B128 => 1,
            BlockSize::B256 => 2,
            BlockSize::B512 => 3,
            BlockSize::B1024 => 4,
        }
    }
}

impl fmt::Display for BlockSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}MB", self.mb() as u64)
    }
}

/// One application's tuning configuration: the paper's three knobs.
///
/// ```
/// use ecost_mapreduce::TuningConfig;
///
/// // The paper's "160 possible cases … per application" on an 8-core node.
/// assert_eq!(TuningConfig::space(8).count(), 160);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TuningConfig {
    /// Operating frequency (architecture level).
    pub freq: Frequency,
    /// HDFS block size (system level).
    pub block: BlockSize,
    /// Simultaneous mappers on the node (system level), 1..=8.
    pub mappers: u32,
}

impl TuningConfig {
    /// Hadoop's out-of-the-box configuration: 128 MB blocks, all 8 slots, and
    /// the governor's maximum frequency. This is "\[NT\] — not tuned" in §8.
    pub fn hadoop_default(cores: u32) -> TuningConfig {
        TuningConfig {
            freq: Frequency::F2_4,
            block: BlockSize::B128,
            mappers: cores,
        }
    }

    /// Enumerate the full per-application space for a node with `max_mappers`
    /// slots: `5 blocks × 4 freqs × max_mappers` (= 160 for the Atom node).
    pub fn space(max_mappers: u32) -> impl Iterator<Item = TuningConfig> {
        BlockSize::ALL.into_iter().flat_map(move |block| {
            Frequency::ALL.into_iter().flat_map(move |freq| {
                (1..=max_mappers).map(move |mappers| TuningConfig {
                    freq,
                    block,
                    mappers,
                })
            })
        })
    }

    /// The space with the mapper count fixed (used when the core split is
    /// decided elsewhere).
    pub fn space_fixed_mappers(mappers: u32) -> impl Iterator<Item = TuningConfig> {
        BlockSize::ALL.into_iter().flat_map(move |block| {
            Frequency::ALL.into_iter().map(move |freq| TuningConfig {
                freq,
                block,
                mappers,
            })
        })
    }

    /// Compact "f, h, m" rendering matching Table 2's columns.
    pub fn table_row(&self) -> String {
        format!(
            "{:.1}, {:>4}, {}",
            self.freq.ghz(),
            self.block.mb() as u64,
            self.mappers
        )
    }
}

impl fmt::Display for TuningConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(f={}, h={}, m={})", self.freq, self.block, self.mappers)
    }
}

/// Configuration of a co-located pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PairConfig {
    /// First application's knobs.
    pub a: TuningConfig,
    /// Second application's knobs.
    pub b: TuningConfig,
}

impl PairConfig {
    /// Total cores requested.
    #[inline]
    pub fn cores(&self) -> u32 {
        self.a.mappers + self.b.mappers
    }

    /// Enumerate every pair configuration whose combined mapper count fits
    /// the node (`m_a + m_b ≤ cores`, both ≥ 1) — the COLAO oracle's search
    /// space: 5·4 × 5·4 × 28 = 11 200 points for an 8-core node.
    pub fn space(cores: u32) -> Vec<PairConfig> {
        let mut out = Vec::new();
        for ma in 1..cores {
            for mb in 1..=(cores - ma) {
                for a in TuningConfig::space_fixed_mappers(ma) {
                    for b in TuningConfig::space_fixed_mappers(mb) {
                        out.push(PairConfig { a, b });
                    }
                }
            }
        }
        out
    }

    /// The core-partitioning options only (block/frequency fixed to given
    /// values) — the sweep behind the paper's Fig 5 "every combination of
    /// core partitioning".
    pub fn partitions(cores: u32) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for ma in 1..cores {
            for mb in 1..=(cores - ma) {
                out.push((ma, mb));
            }
        }
        out
    }

    /// Swap the two applications' configurations.
    pub fn swapped(self) -> PairConfig {
        PairConfig {
            a: self.b,
            b: self.a,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_sizes_match_paper() {
        let mb: Vec<f64> = BlockSize::ALL.iter().map(|b| b.mb()).collect();
        assert_eq!(mb, vec![64.0, 128.0, 256.0, 512.0, 1024.0]);
        for (i, b) in BlockSize::ALL.iter().enumerate() {
            assert_eq!(b.index(), i);
        }
    }

    #[test]
    fn per_app_space_has_160_points() {
        // "there are 160 possible cases that need to be examined" (§7).
        assert_eq!(TuningConfig::space(8).count(), 160);
        let uniq: std::collections::HashSet<_> = TuningConfig::space(8).collect();
        assert_eq!(uniq.len(), 160);
    }

    #[test]
    fn pair_space_respects_core_budget() {
        let space = PairConfig::space(8);
        assert_eq!(space.len(), 5 * 4 * 5 * 4 * 28);
        assert!(space
            .iter()
            .all(|p| p.cores() <= 8 && p.a.mappers >= 1 && p.b.mappers >= 1));
    }

    #[test]
    fn partitions_count() {
        assert_eq!(PairConfig::partitions(8).len(), 28);
        assert_eq!(PairConfig::partitions(2), vec![(1, 1)]);
    }

    #[test]
    fn default_config_is_untuned_hadoop() {
        let d = TuningConfig::hadoop_default(8);
        assert_eq!(d.block, BlockSize::B128);
        assert_eq!(d.mappers, 8);
        assert_eq!(d.freq, Frequency::F2_4);
    }

    #[test]
    fn table_row_matches_paper_format() {
        let c = TuningConfig {
            freq: Frequency::F2_4,
            block: BlockSize::B1024,
            mappers: 3,
        };
        assert_eq!(c.table_row(), "2.4, 1024, 3");
    }

    #[test]
    fn swapped_round_trips() {
        let p = PairConfig {
            a: TuningConfig::hadoop_default(4),
            b: TuningConfig {
                freq: Frequency::F1_2,
                block: BlockSize::B64,
                mappers: 2,
            },
        };
        assert_eq!(p.swapped().swapped(), p);
        assert_eq!(p.swapped().a, p.b);
    }
}
