//! Bit-exactness of the incremental maintenance layer.
//!
//! PR 6 put an `O(delta)` update path under every per-event law computation:
//! `BatchedEngine` patches its productive-row table across each applied
//! event, the j-Majority and MedianRule activation laws are patched in their
//! thread-local memos, and the lockstep ensemble derives missed shared
//! tables from cached neighbours by delta replay.  All of it claims exact
//! equality — every maintained weight is an integer, so a patched law is
//! *bit-identical* to a rebuilt one.  This suite drives that claim with
//! random event sequences:
//!
//! * **Row tables** — USD batched engines with patching on vs off advance in
//!   lockstep over random configurations; configurations, interaction
//!   counters and advance outcomes must agree at every event, and the
//!   maintenance counters must attribute the work to the right path.
//! * **Activation laws** — all five sampling dynamics × k ∈ {2, 4, 8}:
//!   twin runs with incremental laws on vs off (each on a fresh thread, so
//!   each twin starts from a cold memo and cannot mask the other's bugs by
//!   sharing it) must produce equal results and identical recorded
//!   trajectories.
//! * **Ensemble neighbour-delta** — shared-table derivation from cached
//!   neighbours at random replica/thread counts must leave every replica
//!   bit-identical to its standalone same-seed run.
//!
//! The CI incremental-equivalence step re-runs this suite with
//! `--features exhaustive-checks`, which additionally rebuilds and compares
//! every patched table inside the engines themselves on every refresh.

use consensus_dynamics::{
    sampler_ensemble, set_incremental_laws, JMajority, MedianRule, SamplingDynamics,
    SequentialSampler, ThreeMajority, TwoChoices, Voter,
};
use pp_core::engine::{Advance, StepEngine};
use pp_core::ensemble::EnsembleChoice;
use pp_core::{BatchedEngine, Configuration, RunResult, SimSeed, StopCondition};
use proptest::prelude::*;
use usd_core::{UndecidedStateDynamics, UsdEnsemble};

fn stop(budget: u64) -> StopCondition {
    StopCondition::consensus().or_max_interactions(budget)
}

/// Runs `dynamics` through the sequential sampler's skip-ahead driver on a
/// fresh thread (fresh thread = cold thread-local law memos) with the
/// incremental-law switch set as requested, recording the full trajectory.
fn recorded_sampler_run<D: SamplingDynamics + Send + 'static>(
    dynamics: D,
    config: Configuration,
    seed: SimSeed,
    budget: u64,
    incremental: bool,
) -> (RunResult, Vec<(u64, Configuration)>) {
    std::thread::spawn(move || {
        set_incremental_laws(incremental);
        let mut sim = SequentialSampler::new(dynamics, config, seed);
        let mut trace: Vec<(u64, Configuration)> = Vec::new();
        let mut recorder = |t: u64, c: &Configuration| trace.push((t, c.clone()));
        let result = sim.run_engine_recorded(stop(budget), &mut recorder);
        (result, trace)
    })
    .join()
    .expect("sampler twin panicked")
}

/// Twin runs (incremental laws on vs off) of one dynamic must agree on the
/// run result and on the whole recorded trajectory, event for event.
fn assert_law_twins_agree<D: SamplingDynamics + Clone + Send + 'static>(
    dynamics: D,
    config: &Configuration,
    seed: u64,
    budget: u64,
) -> Result<(), TestCaseError> {
    let seed = SimSeed::from_u64(seed);
    let (patched, patched_trace) =
        recorded_sampler_run(dynamics.clone(), config.clone(), seed, budget, true);
    let (rebuilt, rebuilt_trace) =
        recorded_sampler_run(dynamics, config.clone(), seed, budget, false);
    prop_assert_eq!(&patched, &rebuilt, "run results diverged at {}", config);
    prop_assert_eq!(
        patched_trace.len(),
        rebuilt_trace.len(),
        "trajectory lengths diverged at {}",
        config
    );
    prop_assert!(
        patched_trace == rebuilt_trace,
        "trajectories diverged at {}",
        config
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// USD batched engines with row patching on vs off, advanced in
    /// lockstep: every advance outcome, configuration and counter must
    /// agree, at every event of the random trajectory.
    #[test]
    fn usd_incremental_rows_match_rebuilds_at_every_event(
        counts in collection::vec(0u64..60, 2..9),
        undecided in 0u64..60,
        seed in 0u64..u64::MAX,
    ) {
        let config = Configuration::from_counts(counts, undecided).unwrap();
        prop_assume!(config.population() >= 2);
        let k = config.num_opinions();
        let mut patched = BatchedEngine::new(
            UndecidedStateDynamics::new(k),
            config.clone(),
            SimSeed::from_u64(seed),
        );
        let mut rebuilt = BatchedEngine::new(
            UndecidedStateDynamics::new(k),
            config,
            SimSeed::from_u64(seed),
        );
        rebuilt.set_incremental_rows(false);
        let limit = 300_000u64;
        let mut events = 0u64;
        loop {
            let a = patched.advance(limit);
            let b = rebuilt.advance(limit);
            prop_assert_eq!(a, b, "advance outcomes diverged after {} events", events);
            prop_assert_eq!(
                StepEngine::configuration(&patched),
                StepEngine::configuration(&rebuilt),
                "configurations diverged after {} events",
                events
            );
            prop_assert_eq!(patched.interactions(), rebuilt.interactions());
            if a != Advance::Event {
                break;
            }
            events += 1;
        }
        let patched_stats = patched.maintenance().expect("batched engines count");
        let rebuilt_stats = rebuilt.maintenance().expect("batched engines count");
        prop_assert_eq!(rebuilt_stats.rows_patched, 0, "baseline must never patch");
        if events > 0 {
            prop_assert!(patched_stats.rows_patched >= events.saturating_sub(1));
            prop_assert!(patched_stats.rows_rebuilt <= 1 + events);
        }
    }

    /// All five dynamics × k ∈ {2, 4, 8}: incremental vs rebuilt activation
    /// laws give identical trajectories over random event sequences.
    #[test]
    fn sampling_law_twins_are_bit_identical(
        k_index in 0usize..3,
        raw_counts in collection::vec(0u64..40, 8..9),
        undecided in 0u64..40,
        seed in 0u64..u64::MAX,
    ) {
        let k = [2usize, 4, 8][k_index];
        let counts: Vec<u64> = raw_counts[..k].to_vec();
        let config = Configuration::from_counts(counts, undecided).unwrap();
        prop_assume!(config.population() >= 2);
        let budget = 150_000u64;
        assert_law_twins_agree(Voter::new(k), &config, seed, budget)?;
        assert_law_twins_agree(TwoChoices::new(k), &config, seed ^ 1, budget)?;
        assert_law_twins_agree(ThreeMajority::new(k), &config, seed ^ 2, budget)?;
        assert_law_twins_agree(JMajority::new(k, 5), &config, seed ^ 3, budget)?;
        assert_law_twins_agree(MedianRule::new(k), &config, seed ^ 4, budget)?;
    }

    /// Ensemble shared-table neighbour-delta derivation at random replica
    /// and thread counts: every replica stays bit-identical to its
    /// standalone same-seed run, for both the USD (row tables) and the
    /// 3-Majority (activation laws, derived through the sampler memo).
    #[test]
    fn ensemble_neighbour_delta_keeps_replicas_standalone_exact(
        replicas in 2usize..6,
        threads in 1usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let budget = 2_000_000u64;
        let master = SimSeed::from_u64(seed);
        let choice = EnsembleChoice::new(replicas).threads(threads);

        let usd_config = Configuration::from_counts(vec![150, 90, 60], 0).unwrap();
        let outcome = UsdEnsemble::try_new(usd_config.clone(), master, choice)
            .expect("batched base engine")
            .run(stop(budget));
        for (i, seed) in choice.seeds(master).into_iter().enumerate() {
            let mut standalone =
                BatchedEngine::new(UndecidedStateDynamics::new(3), usd_config.clone(), seed);
            let expected = standalone.run_engine(stop(budget));
            prop_assert_eq!(outcome.replica(i), &expected, "USD replica {} diverged", i);
        }

        let maj_config = Configuration::from_counts(vec![120, 80, 40], 30).unwrap();
        let dynamics = ThreeMajority::new(3);
        let outcome = sampler_ensemble(&dynamics, &maj_config, master, choice)
            .expect("3-majority supports the ensemble")
            .run(stop(budget));
        for (i, seed) in choice.seeds(master).into_iter().enumerate() {
            let mut standalone = SequentialSampler::new(dynamics, maj_config.clone(), seed);
            let expected = standalone.run_engine(stop(budget));
            prop_assert_eq!(
                outcome.replica(i),
                &expected,
                "3-majority replica {} diverged",
                i
            );
        }
    }
}

/// Row patching at n = 10¹⁰, beyond 2³² agents: the undecided row and the
/// row total outgrow `u64` while every initiator sum `S_cat ≤ n` still
/// fits, so the event draw takes the 128-bit bounded draw and, whenever the
/// target lands past 2⁶⁴ in the undecided row, the 128-bit remainder — which
/// picks the opinion the responder adopts.  Patched and rebuilt twins must
/// walk the same trajectory.
#[test]
fn usd_rows_beyond_two_to_the_32_agents_match_rebuilds() {
    // (start, pinned configuration and interaction count after 400 events).
    // The twins share the draw, so an arithmetic slip in it would move both
    // alike; the pins catch that.
    let cases = [
        (
            (vec![3_500_000_000u64, 2_500_000_000], 4_000_000_000u64),
            (
                vec![3_500_000_051u64, 2_500_000_023],
                3_999_999_926u64,
                909u64,
            ),
        ),
        (
            (
                vec![3_000_000_000, 2_000_000_000, 1_000_000_000],
                4_000_000_000,
            ),
            (
                vec![3_000_000_054, 1_999_999_998, 999_999_996],
                3_999_999_952,
                886,
            ),
        ),
    ];
    for ((counts, undecided), (supports, final_undecided, interactions)) in cases {
        let config = Configuration::from_counts(counts, undecided).unwrap();
        assert_eq!(config.population(), 10_000_000_000);
        // The USD undecided row is u · (n − u): past u64.
        let u = config.undecided();
        assert!(u128::from(u) * u128::from(config.population() - u) > u128::from(u64::MAX));
        let k = config.num_opinions();
        let seed = SimSeed::from_u64(0x1E10 + k as u64);
        let mut patched = BatchedEngine::new(UndecidedStateDynamics::new(k), config.clone(), seed);
        let mut rebuilt = BatchedEngine::new(UndecidedStateDynamics::new(k), config, seed);
        rebuilt.set_incremental_rows(false);
        for event in 0..400 {
            assert_eq!(patched.advance(u64::MAX), Advance::Event, "k = {k}");
            assert_eq!(rebuilt.advance(u64::MAX), Advance::Event, "k = {k}");
            assert_eq!(
                StepEngine::configuration(&patched),
                StepEngine::configuration(&rebuilt),
                "k = {k}: configurations diverged at event {event}"
            );
            assert_eq!(patched.interactions(), rebuilt.interactions(), "k = {k}");
        }
        let stats = patched.maintenance().expect("batched engines count");
        assert_eq!((stats.rows_rebuilt, stats.rows_patched), (1, 400));
        let end = StepEngine::configuration(&patched);
        assert_eq!(end.supports(), &supports[..], "k = {k}");
        assert_eq!(end.undecided(), final_undecided, "k = {k}");
        assert_eq!(patched.interactions(), interactions, "k = {k}");
    }
}

/// The deterministic smoke version of the law-twin property, so a plain
/// `cargo test` failure names the dynamic without a proptest shrink.
#[test]
fn law_twins_agree_on_fixed_configurations() {
    let config = Configuration::from_counts(vec![60, 35, 25], 20).unwrap();
    assert_law_twins_agree(ThreeMajority::new(3), &config, 7, 500_000).unwrap();
    assert_law_twins_agree(JMajority::new(3, 5), &config, 8, 500_000).unwrap();
    assert_law_twins_agree(MedianRule::new(3), &config, 9, 500_000).unwrap();
}

/// The incremental layer must actually engage on a long majority run — and
/// its counters must surface through the recorded `RunResult`.
#[test]
fn majority_run_reports_mostly_patched_laws() {
    let config = Configuration::from_counts(vec![400, 300, 300], 0).unwrap();
    let mut sim = SequentialSampler::new(ThreeMajority::new(3), config, SimSeed::from_u64(5));
    let result = sim.run_engine(stop(10_000_000));
    assert!(result.reached_consensus());
    let stats = result.maintenance().expect("samplers report maintenance");
    assert!(
        stats.law_patches > stats.law_rebuilds,
        "patching should dominate: {stats:?}"
    );
    assert!(
        stats.law_patched_fraction().unwrap() > 0.9,
        "long runs should be overwhelmingly patched: {stats:?}"
    );
}
