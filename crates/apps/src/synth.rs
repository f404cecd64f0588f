//! Synthetic application generator.
//!
//! The paper's controller must handle *unknown* incoming applications. The
//! catalog's six test applications exercise that, but for property-based and
//! stress testing we also generate unlimited synthetic applications with a
//! requested behaviour class: each draws its demand parameters from a
//! class-specific envelope wide enough to be interesting but narrow enough
//! that the ground-truth class stays correct.

use crate::class::AppClass;
use crate::profile::AppProfile;
use rand::Rng;

/// Inclusive parameter envelope for one class.
struct Envelope {
    map_cycles_per_mb: (f64, f64),
    map_selectivity: (f64, f64),
    spill_factor: (f64, f64),
    llc_mpki: (f64, f64),
    ipc_base: (f64, f64),
    mem_stall_frac: (f64, f64),
    working_set_frac: (f64, f64),
}

fn envelope(class: AppClass) -> Envelope {
    match class {
        AppClass::C => Envelope {
            map_cycles_per_mb: (250e6, 430e6),
            map_selectivity: (0.01, 0.12),
            spill_factor: (1.0, 1.05),
            llc_mpki: (1.0, 3.0),
            ipc_base: (0.9, 1.2),
            mem_stall_frac: (0.1, 0.3),
            working_set_frac: (0.01, 0.08),
        },
        AppClass::H => Envelope {
            map_cycles_per_mb: (100e6, 145e6),
            map_selectivity: (0.0, 1.0),
            spill_factor: (1.0, 1.3),
            llc_mpki: (2.0, 6.0),
            ipc_base: (0.8, 1.1),
            mem_stall_frac: (0.15, 0.45),
            working_set_frac: (0.02, 0.15),
        },
        AppClass::I => Envelope {
            map_cycles_per_mb: (8e6, 25e6),
            map_selectivity: (0.8, 1.2),
            spill_factor: (1.1, 1.5),
            llc_mpki: (2.0, 4.5),
            ipc_base: (0.75, 1.0),
            mem_stall_frac: (0.15, 0.35),
            working_set_frac: (0.02, 0.08),
        },
        AppClass::M => Envelope {
            map_cycles_per_mb: (250e6, 340e6),
            map_selectivity: (0.1, 0.25),
            spill_factor: (1.0, 1.1),
            llc_mpki: (11.0, 20.0),
            ipc_base: (0.6, 0.8),
            mem_stall_frac: (0.6, 0.9),
            working_set_frac: (0.25, 0.5),
        },
    }
}

fn draw<R: Rng>(rng: &mut R, (lo, hi): (f64, f64)) -> f64 {
    if lo == hi {
        lo
    } else {
        rng.gen_range(lo..=hi)
    }
}

/// Generate a synthetic application of the requested class under `name`
/// (profiles hold `&'static str` so the catalog can be `const`).
pub fn synth_app_named<R: Rng>(rng: &mut R, class: AppClass, name: &'static str) -> AppProfile {
    let e = envelope(class);
    let p = AppProfile {
        name,
        class,
        map_cycles_per_mb: draw(rng, e.map_cycles_per_mb),
        task_overhead_cycles: rng.gen_range(1.8e9..=3.0e9),
        map_selectivity: draw(rng, e.map_selectivity),
        spill_factor: draw(rng, e.spill_factor),
        reduce_cycles_per_mb: rng.gen_range(25e6..=110e6),
        output_selectivity: draw(rng, e.map_selectivity) * 0.8,
        job_overhead_s: rng.gen_range(8.0..=12.0),
        llc_mpki: draw(rng, e.llc_mpki),
        ipc_base: draw(rng, e.ipc_base),
        mem_stall_frac: draw(rng, e.mem_stall_frac),
        icache_mpki: rng.gen_range(3.0..=8.0),
        branch_misp_pct: rng.gen_range(1.5..=4.5),
        working_set_frac: draw(rng, e.working_set_frac),
        footprint_base_mb: rng.gen_range(250.0..=700.0),
    };
    debug_assert!(p.validate().is_ok());
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn synthetic_profiles_validate() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for class in AppClass::ALL {
            for i in 0..20 {
                let p = synth_app_named(&mut rng, class, "syn-test");
                p.validate().unwrap_or_else(|e| panic!("{class} #{i}: {e}"));
                assert_eq!(p.class, class);
            }
        }
    }

    #[test]
    fn classes_are_separable_in_expectation() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..10 {
            let c = synth_app_named(&mut rng, AppClass::C, "c");
            let i = synth_app_named(&mut rng, AppClass::I, "i");
            let m = synth_app_named(&mut rng, AppClass::M, "m");
            assert!(c.map_cycles_per_mb > 4.0 * i.map_cycles_per_mb);
            assert!(m.llc_mpki > 2.0 * c.llc_mpki);
            assert!(m.working_set_frac > c.working_set_frac);
        }
    }
}
