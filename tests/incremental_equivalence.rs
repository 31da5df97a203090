//! Bit-exactness of the incremental maintenance layer.
//!
//! Every per-event law computation has an incremental path under it:
//! `BatchedEngine` draws USD-shaped events from the closed form
//! `n·D − Σx²` with `O(1)` running sums, and the j-Majority and MedianRule
//! activation laws are patched in their thread-local memos (where a
//! lockstep ensemble's missed shared laws are derived from the memo's
//! cached neighbour by delta replay).  All of it claims exact equality —
//! every maintained weight is an integer, so the incremental path is
//! *bit-identical* to a rebuild.  This suite drives that claim with random
//! event sequences:
//!
//! * **Row tables** — USD and pairwise-Voter batched engines with the
//!   closed-form kernel on vs off advance in lockstep over random
//!   configurations and edge cases; configurations, interaction counters
//!   and advance outcomes must agree at every event, and the maintenance
//!   counters must attribute the work to the right path.
//! * **Kernel goldens** — USD k = 8 and k = 2 runs to consensus and a
//!   pairwise-Voter run pin interactions, final counts and every engine
//!   counter to numbers recorded before the closed-form kernel existed, so
//!   a slip that moves both twins alike still fails.
//! * **Activation laws** — all five sampling dynamics × k ∈ {2, 4, 8}:
//!   twin runs with incremental laws on vs off (each on a fresh thread, so
//!   each twin starts from a cold memo and cannot mask the other's bugs by
//!   sharing it) must produce equal results and identical recorded
//!   trajectories.
//! * **Ensemble replicas** — the USD's per-replica closed-form kernel and the
//!   3-Majority's memo-derived shared laws at random replica/thread counts
//!   must leave every replica bit-identical to its standalone same-seed
//!   run.
//!
//! The CI incremental-equivalence step re-runs this suite with
//! `--features exhaustive-checks`, which additionally checks the kernel's
//! running sums and rows against enumeration, and every patched law against
//! a rebuild, inside the engines themselves on every refresh.  The CI
//! batched-kernel step runs the goldens alone in release.

use consensus_dynamics::{
    sampler_ensemble, set_incremental_laws, JMajority, MedianRule, PairwiseVoter, SamplingDynamics,
    SequentialSampler, ThreeMajority, TwoChoices, Voter,
};
use pp_core::engine::{Advance, StepEngine};
use pp_core::ensemble::EnsembleChoice;
use pp_core::{BatchedEngine, Configuration, OpinionProtocol, RunResult, SimSeed, StopCondition};
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

/// Twin batched engines, closed-form kernel on vs off (the rebuild
/// reference), advanced in lockstep to a fixed limit: outcomes,
/// configurations and interaction counters must agree at every event, and
/// the counters must attribute the work to the right path.
fn assert_row_twins_agree<P: OpinionProtocol + Clone>(
    protocol: P,
    config: &Configuration,
    seed: u64,
) -> Result<(), TestCaseError> {
    let seed = SimSeed::from_u64(seed);
    let mut patched = BatchedEngine::new(protocol.clone(), config.clone(), seed);
    let mut rebuilt = BatchedEngine::new(protocol, config.clone(), seed);
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
            "configurations diverged after {} events from {}",
            events,
            config
        );
        prop_assert_eq!(patched.interactions(), rebuilt.interactions());
        if a != Advance::Event {
            break;
        }
        events += 1;
    }
    let patched_stats = patched.maintenance_stats();
    let rebuilt_stats = rebuilt.maintenance_stats();
    prop_assert_eq!(
        (patched_stats.rows_rebuilt, patched_stats.rows_patched),
        (1, events)
    );
    prop_assert_eq!(
        rebuilt_stats.rows_patched,
        0,
        "the reference must never patch"
    );
    prop_assert!((events..=events + 1).contains(&rebuilt_stats.rows_rebuilt));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// USD and pairwise-Voter batched engines with the closed-form kernel
    /// on vs off, advanced in lockstep: every advance outcome,
    /// configuration and counter must agree, at every event of the random
    /// trajectory.  The Voter's decided rows depend on the initiator, so
    /// its draws always resolve one.
    #[test]
    fn usd_incremental_rows_match_rebuilds_at_every_event(
        counts in collection::vec(0u64..60, 1..9),
        undecided in 0u64..60,
        seed in 0u64..u64::MAX,
    ) {
        let config = Configuration::from_counts(counts, undecided).unwrap();
        prop_assume!(config.population() >= 2);
        let k = config.num_opinions();
        assert_row_twins_agree(UndecidedStateDynamics::new(k), &config, seed)?;
        assert_row_twins_agree(PairwiseVoter::new(k), &config, seed ^ 1)?;
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

    /// Ensemble replicas at random replica and thread counts: every replica
    /// stays bit-identical to its standalone same-seed run, for both the
    /// USD (rows patched per replica in dormant windows) and the 3-Majority
    /// (shared activation laws, derived through the sampler memo).
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

/// The closed-form kernel at n = 10¹⁰, beyond 2³² agents: `n²` outgrows
/// `u64`, so the kernel takes `u128` weights; the undecided row and the
/// total outgrow `u64` while every initiator sum `S_r ≤ n` still fits.  The
/// event draw takes the 128-bit bounded draw and, whenever the target lands
/// past 2⁶⁴ in the undecided row, the 128-bit remainder — which picks the
/// opinion the responder adopts.  Kernel and rebuilt twins must walk the
/// same trajectory.
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

/// The closed-form kernel's edge cases against the rebuild reference:
/// a single opinion, no undecided agents, no decided agents (absorbed at
/// once), extinct opinions and a consensus start.
#[test]
fn closed_form_edge_cases_match_rebuilds() {
    let cases = [
        (vec![40u64], 10u64),
        (vec![30, 20, 10], 0),
        (vec![0, 0, 0], 40),
        (vec![0, 25, 0, 15], 5),
        (vec![50, 0], 0),
    ];
    for (counts, undecided) in cases {
        let config = Configuration::from_counts(counts, undecided).unwrap();
        let k = config.num_opinions();
        for seed in 1..=4 {
            assert_row_twins_agree(UndecidedStateDynamics::new(k), &config, seed).unwrap();
            assert_row_twins_agree(PairwiseVoter::new(k), &config, seed).unwrap();
        }
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

/// What a batched walk left behind: the interaction counter, the final
/// counts and every counter the engine reports.
#[derive(Debug, PartialEq, Eq)]
struct BatchedGolden {
    interactions: u64,
    supports: Vec<u64>,
    undecided: u64,
    events_drawn: u64,
    nulls_skipped: u64,
    table_refreshes: u64,
    rows_patched: u64,
    rows_rebuilt: u64,
}

/// Advances a batched engine until consensus or `max_events` events.
fn batched_golden<P: OpinionProtocol>(
    protocol: P,
    config: Configuration,
    seed: u64,
    max_events: u64,
) -> BatchedGolden {
    let mut engine = BatchedEngine::new(protocol, config, SimSeed::from_u64(seed));
    let mut events = 0u64;
    while events < max_events && !StepEngine::configuration(&engine).is_consensus() {
        assert_eq!(engine.advance(u64::MAX), Advance::Event);
        events += 1;
    }
    let snap = StepEngine::telemetry(&engine).expect("batched engines report telemetry");
    let counter = |name: &str| snap.counter(name).expect(name);
    let end = StepEngine::configuration(&engine);
    BatchedGolden {
        interactions: engine.interactions(),
        supports: end.supports().to_vec(),
        undecided: end.undecided(),
        events_drawn: counter("batched.events_drawn"),
        nulls_skipped: counter("batched.nulls_skipped"),
        table_refreshes: counter("batched.table_refreshes"),
        rows_patched: counter("maintenance.rows_patched"),
        rows_rebuilt: counter("maintenance.rows_rebuilt"),
    }
}

// Recorded from the table-patching engine the closed-form kernel replaced,
// so any slip in the kernel's draw (row order, remainder, initiator scan,
// `u64`/`u128` boundary) or in its counters shows up as a changed number.

#[test]
fn batched_kernel_golden_usd_k8_uniform() {
    // The consensus-k8 shape at n = 2·10⁴, run to consensus.
    let cases = [
        (1, 1_314_036, 1, 549_528, 764_508),
        (2, 1_155_327, 4, 458_654, 696_673),
    ];
    for (seed, interactions, winner, events, nulls) in cases {
        let mut supports = vec![0; 8];
        supports[winner] = 20_000;
        let config = Configuration::uniform(20_000, 8).unwrap();
        assert_eq!(
            batched_golden(UndecidedStateDynamics::new(8), config, seed, u64::MAX),
            BatchedGolden {
                interactions,
                supports,
                undecided: 0,
                events_drawn: events,
                nulls_skipped: nulls,
                table_refreshes: events + 1,
                rows_patched: events,
                rows_rebuilt: 1,
            },
            "seed {seed}"
        );
    }
}

#[test]
fn batched_kernel_golden_usd_k2_threshold() {
    // n = 5·10⁴ at additive bias 0.15·√(n ln n) ≈ 110, run to consensus.
    let config = Configuration::from_counts(vec![25_055, 24_945], 0).unwrap();
    assert_eq!(
        batched_golden(UndecidedStateDynamics::new(2), config, 3, u64::MAX),
        BatchedGolden {
            interactions: 1_638_336,
            supports: vec![50_000, 0],
            undecided: 0,
            events_drawn: 448_748,
            nulls_skipped: 1_189_588,
            table_refreshes: 448_749,
            rows_patched: 448_748,
            rows_rebuilt: 1,
        }
    );
}

#[test]
fn batched_kernel_golden_pairwise_voter_k4() {
    // The Voter's decided rows adopt the initiator's opinion, so every
    // draw resolves its initiator; 10⁵ events from a start with undecided
    // agents, ending with opinion 2 extinct.
    let config = Configuration::from_counts(vec![300, 200, 150, 100], 50).unwrap();
    assert_eq!(
        batched_golden(PairwiseVoter::new(4), config, 4, 100_000),
        BatchedGolden {
            interactions: 163_035,
            supports: vec![191, 106, 0, 503],
            undecided: 0,
            events_drawn: 100_000,
            nulls_skipped: 63_035,
            table_refreshes: 100_001,
            rows_patched: 100_000,
            rows_rebuilt: 1,
        }
    );
}
