//! Pairing policy — Fig 4's decision tree driven by Fig 5's ranking.
//!
//! Fig 5 ranks every class pair by the best EDP it can reach over all core
//! partitionings with tuned knobs. Because absolute pair EDP mixes in the
//! applications' own job lengths, the ranking (measured by the
//! `fig5_priority` experiment) uses the *normalised* quantity
//! `COLAO EDP / ILAO EDP` — how much a class combination gains from being
//! co-located — and [`PairingPolicy::from_ranking`] turns it into a class
//! priority. The scheduler's decision tree follows: an I partner is always
//! preferred, then H, then C, and M only when nothing else waits.

use ecost_apps::class::ClassPair;
use ecost_apps::AppClass;

/// How the scheduler picks a partner from the wait queue — the paper's
/// decision tree, plus the ablation modes used to quantify its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairingMode {
    /// Fig 4's class-priority decision tree (the proposed technique).
    DecisionTree,
    /// Ignore classes entirely: always pair with the queue head (what a
    /// class-blind FIFO scheduler would do).
    Fifo,
    /// Uniformly random eligible candidate (seeded) — the lower bar.
    Random(u64),
}

/// Class-priority pairing policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairingPolicy {
    /// Partner classes from most to least preferred.
    pub priority: [AppClass; 4],
}

impl Default for PairingPolicy {
    /// The paper's derived priority: I ≻ H ≻ C ≻ M.
    fn default() -> PairingPolicy {
        PairingPolicy {
            priority: [AppClass::I, AppClass::H, AppClass::C, AppClass::M],
        }
    }
}

impl PairingPolicy {
    /// Derive the policy from a class-pair ranking (lower score = better
    /// pair): each class scores the mean of its pairs' scores; classes sort
    /// ascending.
    pub fn from_ranking(ranking: &[(ClassPair, f64)]) -> PairingPolicy {
        let mut scores: Vec<(AppClass, f64, usize)> =
            AppClass::ALL.iter().map(|&c| (c, 0.0, 0)).collect();
        for (cp, score) in ranking {
            for entry in &mut scores {
                if cp.first == entry.0 || cp.second == entry.0 {
                    entry.1 += score;
                    entry.2 += 1;
                }
            }
        }
        let mut order: Vec<(AppClass, f64)> = scores
            .into_iter()
            .map(|(c, s, n)| (c, if n > 0 { s / n as f64 } else { f64::INFINITY }))
            .collect();
        order.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mut priority = [AppClass::C; 4];
        for (slot, (c, _)) in priority.iter_mut().zip(order) {
            *slot = c;
        }
        PairingPolicy { priority }
    }

    /// Preference rank of a partner class (0 = most preferred; an absent
    /// class — impossible for a well-formed policy — ranks last).
    pub fn rank(&self, class: AppClass) -> usize {
        self.priority
            .iter()
            .position(|c| *c == class)
            .unwrap_or(self.priority.len())
    }

    /// Among candidate partner classes, the index of the preferred one
    /// (ties resolve to the earliest candidate — FIFO order).
    pub fn choose(&self, candidates: &[AppClass]) -> Option<usize> {
        candidates
            .iter()
            .enumerate()
            .min_by_key(|(i, c)| (self.rank(**c), *i))
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecost_apps::AppClass::*;

    #[test]
    fn default_priority_matches_paper() {
        let p = PairingPolicy::default();
        assert_eq!(p.priority, [I, H, C, M]);
        assert_eq!(p.rank(I), 0);
        assert_eq!(p.rank(M), 3);
    }

    #[test]
    fn choose_prefers_io_then_fifo() {
        let p = PairingPolicy::default();
        assert_eq!(p.choose(&[C, I, M, I]), Some(1)); // first I wins
        assert_eq!(p.choose(&[M, M, C]), Some(2));
        assert_eq!(p.choose(&[M, M]), Some(0));
        assert_eq!(p.choose(&[]), None);
    }

    #[test]
    fn from_ranking_orders_classes_by_pair_scores() {
        // Hand-built ranking where M pairs are terrible and I pairs great.
        let ranking = vec![
            (ClassPair::new(I, I), 0.3),
            (ClassPair::new(I, H), 0.4),
            (ClassPair::new(H, H), 0.5),
            (ClassPair::new(C, I), 0.55),
            (ClassPair::new(C, H), 0.6),
            (ClassPair::new(C, C), 0.8),
            (ClassPair::new(I, M), 0.85),
            (ClassPair::new(H, M), 0.9),
            (ClassPair::new(C, M), 0.95),
            (ClassPair::new(M, M), 1.0),
        ];
        let p = PairingPolicy::from_ranking(&ranking);
        assert_eq!(p.priority[0], I);
        assert_eq!(p.priority[3], M);
    }
}
