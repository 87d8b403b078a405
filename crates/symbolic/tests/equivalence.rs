//! Equivalence of the symbolic engine with the enumerative `reach` crate,
//! on every zoo protocol and every bounded slice `n ≤ 8`.
//!
//! * `symbolic_stable_sets` restricted to slice `n` must equal the
//!   enumerative backward-fixpoint stable sets, configuration by
//!   configuration;
//! * the Karp–Miller cover must contain every enumeratively reachable
//!   configuration;
//! * the `SymbolicVerifier`'s all-`n` verdicts must agree with the
//!   per-slice verdicts on every zoo threshold protocol;
//! * the busy-beaver pre-filter must never reject a candidate that concrete
//!   profiling verifies (checked over a seeded random candidate sample);
//! * the η-floor pre-filter must never reject a candidate that concrete
//!   profiling verifies with a threshold `η ≥ 3` (same kind of sample).

use popproto_model::{Input, Output, Protocol, ProtocolBuilder};
use popproto_reach::{
    frontier_threshold_profile, unary_threshold_profile, ExploreLimits, ReachabilityGraph,
    StableSets,
};
use popproto_symbolic::{
    eta_floor_prefilter, karp_miller, symbolic_stable_sets, threshold_prefilter, SymbolicLimits,
    SymbolicVerifier, ThresholdVerdict,
};
use popproto_zoo::catalog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Initial configurations of total size `n` for unary and binary protocols.
fn slice_inputs(protocol: &Protocol, n: u64) -> Vec<Input> {
    match protocol.input_variables().len() {
        1 => vec![Input::unary(n)],
        2 => (0..=n)
            .map(|a| Input::from_counts(vec![a, n - a]))
            .collect(),
        arity => panic!("unexpected arity {arity}"),
    }
}

#[test]
fn symbolic_stable_sets_match_enumerative_stable_sets_on_all_slices() {
    let limits = SymbolicLimits::default();
    let explore = ExploreLimits::default();
    for instance in catalog() {
        let p = &instance.protocol;
        let sc: Vec<_> = [Output::False, Output::True]
            .into_iter()
            .map(|b| {
                let s = symbolic_stable_sets(p, b, &limits)
                    .unwrap_or_else(|| panic!("{}: SC basis blew up", p.name()));
                assert!(s.exact, "{}: backward fixpoint truncated", p.name());
                s
            })
            .collect();
        for n in 2..=8u64 {
            for input in slice_inputs(p, n) {
                let ic = p.initial_config(&input);
                let graph = ReachabilityGraph::explore(p, std::slice::from_ref(&ic), &explore);
                assert!(graph.is_complete());
                let enumerative = StableSets::compute(p, &graph);
                for id in graph.ids() {
                    let config = graph.config(id);
                    for (idx, b) in [Output::False, Output::True].into_iter().enumerate() {
                        assert_eq!(
                            enumerative.is_stable(id, b),
                            sc[idx].set.contains(&config),
                            "{} @ {config}: symbolic and enumerative {b}-stability differ",
                            p.name(),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn karp_miller_cover_contains_every_reachable_configuration() {
    let limits = SymbolicLimits::default();
    let explore = ExploreLimits::default();
    for instance in catalog() {
        let p = &instance.protocol;
        let cover = karp_miller(p, &limits);
        assert!(cover.complete, "{}: cover truncated", p.name());
        for n in 2..=8u64 {
            for input in slice_inputs(p, n) {
                let ic = p.initial_config(&input);
                let graph = ReachabilityGraph::explore(p, std::slice::from_ref(&ic), &explore);
                for id in graph.ids() {
                    let counts: Vec<u64> = graph.counts_of(id).iter().map(|&c| c as u64).collect();
                    assert!(
                        cover.covers_counts(&counts),
                        "{}: reachable {counts:?} not covered",
                        p.name()
                    );
                }
            }
        }
    }
}

#[test]
fn verifier_certifies_every_zoo_threshold_protocol_for_all_n() {
    let limits = SymbolicLimits::default();
    for instance in catalog() {
        let Some(eta) = instance.predicate.as_unary_threshold() else {
            continue;
        };
        let p = &instance.protocol;
        let verifier = SymbolicVerifier::analyze(p, &limits);
        let verdict = verifier.certify_threshold(eta);
        assert!(
            verdict.is_certified(),
            "{} (η = {eta}): expected an all-n certificate, got {verdict:?}",
            p.name()
        );
        // The all-n verdict must agree with the per-slice profile on n ≤ 8.
        let profile = unary_threshold_profile(p, 8, &ExploreLimits::default());
        assert!(profile.supports(eta), "{}: slices disagree", p.name());
        // And a wrong threshold must be refuted, never certified.
        let wrong = verifier.certify_threshold(eta + 1);
        assert!(
            wrong.is_refuted(),
            "{} (η = {}): expected a refutation, got {wrong:?}",
            p.name(),
            eta + 1
        );
    }
}

#[test]
fn certified_cutoffs_are_consistent_with_slice_profiles() {
    // Whenever the verifier certifies, the per-slice profile up to 8 must
    // report exactly the accept/reject pattern of the certified threshold.
    let limits = SymbolicLimits::default();
    for instance in catalog() {
        let Some(eta) = instance.predicate.as_unary_threshold() else {
            continue;
        };
        let p = &instance.protocol;
        let verifier = SymbolicVerifier::analyze(p, &limits);
        if let ThresholdVerdict::CertifiedAllN { cutoff_input, .. } =
            verifier.certify_threshold(eta)
        {
            assert!(cutoff_input >= 2);
            let profile = unary_threshold_profile(p, 8, &ExploreLimits::default());
            for entry in &profile.inputs {
                assert_eq!(entry.accepts, entry.input >= eta, "{}", p.name());
                assert_eq!(entry.rejects, entry.input < eta, "{}", p.name());
            }
        }
    }
}

/// Builds a random deterministic leaderless candidate, as the busy-beaver
/// enumeration does.
fn random_candidate(rng: &mut StdRng, num_states: usize) -> Protocol {
    let mut b = ProtocolBuilder::new("candidate");
    let states: Vec<_> = (0..num_states)
        .map(|i| {
            b.add_state(
                format!("s{i}"),
                if rng.gen_bool(0.5) {
                    Output::True
                } else {
                    Output::False
                },
            )
        })
        .collect();
    for a in 0..num_states {
        for c in a..num_states {
            let (lo, hi) = (rng.gen_range(0..num_states), rng.gen_range(0..num_states));
            if (lo, hi) == (a, c) || (hi, lo) == (a, c) {
                continue;
            }
            b.add_transition_idempotent((states[a], states[c]), (states[lo], states[hi]))
                .unwrap();
        }
    }
    b.set_input_state("x", states[0]);
    b.build().unwrap()
}

#[test]
fn prefilter_is_sound_for_the_bounded_busy_beaver_semantics() {
    let limits = SymbolicLimits::prefilter();
    let explore = ExploreLimits::default();
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut rejected = 0usize;
    for _ in 0..300 {
        let candidate = random_candidate(&mut rng, 3);
        let may_compute = threshold_prefilter(&candidate, 6, &limits);
        let verified = unary_threshold_profile(&candidate, 6, &explore).verified_threshold();
        if !may_compute {
            rejected += 1;
            assert_eq!(
                verified, None,
                "prefilter rejected a candidate that verifies: {candidate}"
            );
        }
    }
    // The filter must actually fire on a meaningful share of the space.
    assert!(rejected > 30, "only {rejected} of 300 candidates rejected");
}

#[test]
fn eta_floor_prefilter_is_sound_for_thresholds_above_two() {
    let limits = SymbolicLimits::prefilter();
    let explore = ExploreLimits::default();
    let mut rng = StdRng::seed_from_u64(0xE7A);
    for (num_states, samples, min_rejected) in [(3, 600, 300), (4, 300, 150)] {
        let mut rejected = 0usize;
        for _ in 0..samples {
            let candidate = random_candidate(&mut rng, num_states);
            if eta_floor_prefilter(&candidate, 3, &limits) {
                continue;
            }
            rejected += 1;
            let verified = frontier_threshold_profile(&candidate, 8, &explore).verified_threshold();
            assert!(
                verified.is_none_or(|eta| eta < 3),
                "η-floor filter rejected a candidate that verifies x ≥ {verified:?}: {candidate}"
            );
        }
        // The filter must actually fire on a meaningful share of the space.
        assert!(
            rejected > min_rejected,
            "only {rejected} of {samples} {num_states}-state candidates rejected"
        );
    }
}
