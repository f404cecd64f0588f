//! The batched event loop inherits the zero-allocation contract of
//! `zero_alloc.rs`: all batch working state lives in fixed stack arrays
//! (and the simulators' own warm buffers), so a *warm* batched run —
//! `run_batch_to_completion` over reset-and-resubmitted simulators —
//! performs zero heap allocations. Same counting `#[global_allocator]`
//! technique, and deliberately the only test in this binary so no sibling
//! test allocates concurrently.
//!
//! Covers the SIMD lane-kernel path: after one warm-up at the widest
//! window (`MAX_BATCH_LANES` = 16 lanes), the group solves must stay
//! allocation-free at *every* width 1..=16 — full four-lane chunks, padded
//! last chunks, and lanes dropping out as their coupling converges — on
//! both the detected vector backend and the pinned-scalar kernel.
//!
//! Submission is *allowed* to allocate (job stages, timeline reservation):
//! the contract covers the event loop, not setup.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ecost_apps::{App, InputSize};
use ecost_mapreduce::executor::NodeSim;
use ecost_mapreduce::{
    run_batch_to_completion, BatchScratch, FrameworkSpec, JobSpec, TuningConfig, MAX_BATCH_LANES,
};
use ecost_sim::{NodeSpec, SimdBackend};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc that moves or grows is an allocation for our purposes.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Job mix for lane `i`: distinct shapes cycled across the window
/// (different class counts, different event counts, lanes retiring early).
fn mix_for(lane: usize) -> &'static [App] {
    const MIXES: [&[App]; 4] = [
        &[App::Wc, App::St],
        &[App::Wc],
        &[App::St, App::St],
        &[App::Wc, App::Wc],
    ];
    MIXES[lane % MIXES.len()]
}

fn submit_mixes(sims: &mut [NodeSim]) {
    for (lane, sim) in sims.iter_mut().enumerate() {
        for &app in mix_for(lane) {
            sim.submit(JobSpec::new(
                app,
                InputSize::Small,
                TuningConfig::hadoop_default(4),
            ))
            .expect("submit");
        }
    }
}

#[test]
fn batched_event_loop_is_allocation_free_after_warmup() {
    let mut sims: Vec<NodeSim> = (0..MAX_BATCH_LANES)
        .map(|_| NodeSim::new(NodeSpec::atom_c2758(), FrameworkSpec::default()))
        .collect();
    // One scratch per backend, each warmed before its timed windows.
    for backend in [SimdBackend::detect(), SimdBackend::Scalar] {
        let mut scratch = BatchScratch::new(backend);

        // Warm-up: one full-width batched run grows every lane's buffers
        // (AMVA lanes, SoA columns, class vectors, finished capacity) to
        // the widest window's high-water mark, and fills the scratch's
        // reuse table; narrower windows reuse capacity.
        for sim in &mut sims {
            sim.reset();
        }
        submit_mixes(&mut sims);
        run_batch_to_completion(&mut sims, &mut scratch).expect("warm-up run");

        for width in 1..=MAX_BATCH_LANES {
            // The counting allocator is global, and the libtest *main*
            // thread lazily allocates its mpsc parking context the first
            // time it blocks in `Receiver::recv` waiting on this test —
            // at a scheduling-dependent moment that can land inside any
            // of these 32 timed windows. A real batch-path regression
            // allocates deterministically on every run, so retry once:
            // only a window that allocates on *both* attempts fails.
            let mut allocs = u64::MAX;
            for _attempt in 0..2 {
                // Pool-style reuse: reset and resubmit (setup may
                // allocate)…
                for sim in &mut sims[..width] {
                    sim.reset();
                }
                submit_mixes(&mut sims[..width]);

                // …then the warm batched event loop must not allocate.
                let before = ALLOCS.load(Ordering::SeqCst);
                run_batch_to_completion(&mut sims[..width], &mut scratch)
                    .expect("batched event loop");
                allocs = ALLOCS.load(Ordering::SeqCst) - before;
                if allocs == 0 {
                    break;
                }
            }

            assert_eq!(
                allocs, 0,
                "batched event loop allocated {allocs} times after \
                 warm-up on both attempts (backend {backend:?}, \
                 width {width})",
            );

            // The loop really ran: every lane retired its jobs.
            for (lane, sim) in sims[..width].iter().enumerate() {
                assert_eq!(sim.finished().len(), mix_for(lane).len());
                assert!(sim.now() > 0.0);
                assert!(sim.energy_j() > 0.0);
            }
        }
    }
}
