//! Tracing switched on while untraced work is already running.
//!
//! An ensemble wave records its phases through `obs::Phases`, whose marks
//! are taken whether or not tracing is on.  When a session starts in the
//! middle of a phase, that phase is emitted with a start before the
//! session; it must be clipped to the session, or the trace shows it
//! overlapping the phases and waves that follow it on the same thread.
//! This test is alone in its binary so that its session is the first of
//! the process, the case where the unclipped start used to saturate at the
//! trace epoch while the duration kept the time before it.

use popproto_model::Input;
use popproto_obs as obs;
use popproto_sim::{
    run_sharded_ensemble_until_convergence, ConvergenceCriterion, EnsembleSimulator,
};
use popproto_zoo::approximate_majority;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn a_session_started_mid_wave_still_nests() {
    let p = approximate_majority();
    let ic = p.initial_config(&Input::from_counts(vec![70_000, 50_000]));
    let stop = Arc::new(AtomicBool::new(false));
    let waves = Arc::new(AtomicU64::new(0));
    // Untraced users: threads advancing ensembles wave after wave until
    // told to stop, started well before tracing is switched on.
    let background: Vec<_> = (0..3u64)
        .map(|t| {
            let (p, ic, stop, waves) = (p.clone(), ic.clone(), stop.clone(), waves.clone());
            std::thread::spawn(move || {
                let mut seed = 1_000 * t;
                while !stop.load(Ordering::Relaxed) {
                    let mut ensemble =
                        EnsembleSimulator::new(p.clone(), ic.clone(), &[seed, seed + 1]);
                    for _ in 0..50 {
                        ensemble.advance_uniform(20_000);
                        waves.fetch_add(1, Ordering::Relaxed);
                    }
                    seed += 2;
                }
            })
        })
        .collect();
    while waves.load(Ordering::Relaxed) < 30 {
        std::thread::sleep(Duration::from_millis(1));
    }

    obs::start();
    // A traced user on the shared pool, alongside the untraced one.
    let small = p.initial_config(&Input::from_counts(vec![700, 500]));
    let seeds: Vec<u64> = (0..8).collect();
    run_sharded_ensemble_until_convergence(
        &p,
        &small,
        &seeds,
        4,
        ConvergenceCriterion::Silent,
        2_000_000,
    );
    let traced_from = waves.load(Ordering::Relaxed);
    while waves.load(Ordering::Relaxed) < traced_from + 30 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let trace = obs::stop();
    stop.store(true, Ordering::Relaxed);
    for thread in background {
        thread.join().expect("background ensemble");
    }

    let summary = obs::validate_chrome_trace(&trace.to_chrome_trace()).expect("trace validates");
    assert!(summary.tids >= 2, "both users were traced: {summary:?}");
}
