//! Equivalence contracts of the multi-fidelity hybrid engine.
//!
//! The hybrid backend (`usd_core::HybridEngine` under the
//! `pp_core::hybrid` fidelity controller) promises four things beyond raw
//! speed, and this suite pins each one through the public simulator API:
//!
//! 1. **Thread-count bit-identity** — both fidelities are single-threaded
//!    per run, so the trajectory is independent of the shard plan's worker
//!    count, event for event.
//! 2. **Checkpoint/resume across a fidelity switch** — a run captured
//!    mid-ODE-phase (after the detector promoted) replays the identical
//!    tail, because the controller state rides in the checkpoint metadata.
//! 3. **Outcome conformance** — the winner-identity distribution over
//!    independently seeded runs matches the batched stochastic reference
//!    under the two-sample chi-squared check.  Hitting-time *variance* is
//!    deliberately out of scope: ODE stretches carry no sampling noise, so
//!    the hybrid compresses the hitting-time distribution by construction
//!    (the mean transit is preserved, the spread is not) — pinning winner
//!    identity is the honest accuracy contract.
//! 4. **Degeneration** — with promotion thresholds no realizable signal
//!    clears, the hybrid is the batched engine, bit for bit; the adaptive
//!    machinery costs nothing when it never fires.
//!
//! The telemetry counters (`hybrid.switches`, `hybrid.mean_field_fraction`)
//! double as evidence that the conformance runs actually exercised the
//! detector — a hybrid that never promoted would pass trivially.

use pp_analysis::Conformance;
use pp_core::recorder::NullRecorder;
use pp_core::{
    Checkpoint, Configuration, EngineChoice, FidelityConfig, FidelityController, ShardPlan,
    SimSeed, StopCondition, Telemetry,
};
use pp_workloads::InitialConfig;
use usd_core::UsdSimulator;

const BUDGET: u64 = 500_000_000;

/// A deep-bias three-opinion workload at `n = 20_000`: drift-dominated
/// enough that the detector promotes at the first pause boundary, small
/// enough for debug-build test time.
fn deep_bias_config() -> Configuration {
    Configuration::from_counts(vec![15_000, 3_000, 2_000], 0).unwrap()
}

#[test]
fn hybrid_trajectories_are_bit_identical_across_thread_counts() {
    let seed = SimSeed::from_u64(0x4B1D);
    let narrow = ShardPlan::new(1).threads(1);
    let wide = ShardPlan::new(8).threads(4);
    let mut on_narrow = UsdSimulator::with_engine_fidelity(
        deep_bias_config(),
        seed,
        EngineChoice::Hybrid,
        narrow,
        FidelityConfig::default(),
    );
    let mut on_wide = UsdSimulator::with_engine_fidelity(
        deep_bias_config(),
        seed,
        EngineChoice::Hybrid,
        wide,
        FidelityConfig::default(),
    );
    // Lockstep comparison interaction by interaction, not just at the
    // endpoints (`step` returns whether the interaction was productive —
    // that must agree too).
    while !on_narrow.configuration().is_consensus() && on_narrow.interactions() < BUDGET {
        let productive_narrow = on_narrow.step();
        let productive_wide = on_wide.step();
        assert_eq!(productive_narrow, productive_wide);
        assert_eq!(
            on_narrow.interactions(),
            on_wide.interactions(),
            "interaction counts diverged across thread counts"
        );
        assert_eq!(
            on_narrow.configuration(),
            on_wide.configuration(),
            "configurations diverged at interaction {}",
            on_narrow.interactions()
        );
    }
    assert!(
        on_narrow.configuration().is_consensus(),
        "the lockstep run must reach consensus within the budget"
    );
}

#[test]
fn resume_across_a_fidelity_switch_replays_the_identical_tail() {
    let seed = SimSeed::from_u64(0x5EAB);
    let make = || {
        UsdSimulator::with_engine_fidelity(
            deep_bias_config(),
            seed,
            EngineChoice::Hybrid,
            ShardPlan::default(),
            FidelityConfig::default(),
        )
    };
    let mut reference = make();
    let expected = reference.run_to_consensus(BUDGET);
    assert!(expected.reached_consensus());

    // Interrupt a copy mid-ODE through the cooperative pause seam (checked
    // between `advance` calls, where captures are exact and pausing is
    // documented not to perturb the trajectory).  The ODE stretch's span in
    // *interactions* depends on the workload, so scan forward in small
    // pause increments until the capture sits inside the mean-field phase —
    // that is the seam this test exists for.  The controller state is
    // readable straight from the checkpoint metadata.
    let stop = StopCondition::consensus().or_max_interactions(BUDGET);
    let mut interrupted = make();
    let mut at = 0u64;
    let checkpoint = loop {
        let next = at + 2_000;
        let paused =
            interrupted.run_interruptible(stop, &mut NullRecorder, &mut |done| done >= next);
        assert!(
            paused.is_none(),
            "the run finished before a capture landed inside the ODE phase"
        );
        at = interrupted.interactions();
        let checkpoint = interrupted.capture().expect("mid-run capture succeeds");
        let controller = FidelityController::read_meta(&checkpoint)
            .expect("a hybrid checkpoint carries its controller");
        if controller.current() == pp_core::Fidelity::MeanField {
            assert!(controller.switches() >= 1);
            break checkpoint;
        }
    };

    // JSON round trip, restore, and the continuation must converge to the
    // same consensus at the same interaction count as the uninterrupted
    // reference — and so must the interrupted original.
    let restored =
        Checkpoint::from_json(&checkpoint.to_json()).expect("checkpoint JSON round-trips");
    let mut resumed =
        UsdSimulator::restore(&restored, ShardPlan::default()).expect("restore succeeds");
    assert_eq!(resumed.interactions(), interrupted.interactions());
    let resumed_result = resumed
        .run_interruptible(stop, &mut NullRecorder, &mut |_| false)
        .expect("a never-pausing continuation finishes");
    let original_result = interrupted
        .run_interruptible(stop, &mut NullRecorder, &mut |_| false)
        .expect("a never-pausing continuation finishes");
    assert_eq!(
        resumed_result, original_result,
        "the restored copy's continuation diverged from the original's"
    );
    assert_eq!(
        resumed_result.interactions(),
        expected.interactions(),
        "the resumed run did not rejoin the uninterrupted trajectory"
    );
    assert_eq!(resumed_result.winner(), expected.winner());
}

#[test]
fn never_promoting_hybrid_degenerates_to_batched_bit_for_bit() {
    // Thresholds no realizable signal clears: the controller never fires
    // and the hybrid must BE the batched engine on the same seed.
    let fidelity = FidelityConfig {
        promote_ratio: 1e18,
        demote_ratio: 1e17,
        ..FidelityConfig::default()
    };
    let seed = SimSeed::from_u64(0xDE6E);
    let config = Configuration::from_counts(vec![1_800, 600, 600], 0).unwrap();
    let mut batched = UsdSimulator::with_engine(config.clone(), seed, EngineChoice::Batched);
    let mut hybrid = UsdSimulator::with_engine_fidelity(
        config,
        seed,
        EngineChoice::Hybrid,
        ShardPlan::default(),
        fidelity,
    );
    let expected = batched.run_to_consensus(BUDGET);
    let observed = hybrid.run_to_consensus(BUDGET);
    assert!(expected.reached_consensus());
    assert_eq!(observed.interactions(), expected.interactions());
    assert_eq!(observed.winner(), expected.winner());
    assert_eq!(batched.configuration(), hybrid.configuration());
}

/// One seeded winner index under the given backend, from a decisive
/// multiplicative-bias start (the regime where winner identity is a sharp
/// observable; near-tie starts are exactly where the ODE is *not*
/// trustworthy and the detector refuses to promote).
fn winner(choice: EngineChoice, seed: u64) -> usize {
    let spec = InitialConfig::new(10_000, 3)
        .multiplicative_bias(2.0)
        .engine(choice);
    let master = SimSeed::from_u64(seed);
    let config = spec.build(master).unwrap();
    let mut sim = UsdSimulator::with_engine(config, master.child(1), choice);
    let result = sim.run_to_consensus(BUDGET);
    assert!(result.reached_consensus(), "run {seed:#x} did not converge");
    result.winner().expect("consensus has a winner").index()
}

#[test]
fn winner_identity_is_conformant_with_the_batched_reference() {
    let conformance = Conformance::default();
    let mut batched_tally = vec![0u64; 3];
    let mut hybrid_tally = vec![0u64; 3];
    for i in 0..48 {
        batched_tally[winner(EngineChoice::Batched, 0xBA7_000 + i)] += 1;
        hybrid_tally[winner(EngineChoice::Hybrid, 0x4B1_000 + i)] += 1;
    }
    conformance
        .pin_counts(
            "USD winner identity, batched vs hybrid",
            &batched_tally,
            &hybrid_tally,
        )
        .assert_consistent();
}

#[test]
fn telemetry_counters_record_non_trivial_switching() {
    let mut sim = UsdSimulator::with_engine_fidelity(
        deep_bias_config(),
        SimSeed::from_u64(0x7E1E),
        EngineChoice::Hybrid,
        ShardPlan::default(),
        FidelityConfig::default(),
    );
    sim.set_telemetry(Telemetry::enabled());
    let result = sim.run_to_consensus(BUDGET);
    assert!(result.reached_consensus());
    let snap = result.telemetry().expect("telemetry was enabled");
    let switches = snap
        .counter("hybrid.switches")
        .expect("switch counter present");
    // At least the initial promotion and the guard-driven endgame demotion.
    assert!(
        switches >= 2,
        "expected a promote and an endgame demote, saw {switches} switches"
    );
    let fraction = snap
        .gauges()
        .iter()
        .find(|(name, _)| name == "hybrid.mean_field_fraction")
        .map(|(_, v)| *v)
        .expect("mean-field fraction gauge present");
    assert!(
        fraction > 0.0 && fraction < 1.0,
        "the run should split interactions across both fidelities, saw {fraction}"
    );
}

/// The threshold regime of the bias theorem — k = 2, additive bias
/// 0.15·√(n ln n), where the plurality wins with probability strictly
/// inside (0, 1) — run through `run_scenario` at hybrid fidelity.  Each
/// case switches fidelity four times (promote, demote, promote, endgame
/// demote), so its bytes pin the detector signal at every pause boundary
/// as well as the stochastic stretches between them.  The n = 8000 case is
/// won by the minority opinion.
#[test]
fn switching_threshold_runs_keep_their_golden_bytes() {
    use k_opinion_usd::service::runner::{
        result_json, run_scenario, RunControl, RunVerdict, ScenarioOutcome,
    };
    use k_opinion_usd::service::scenario::ScenarioConfig;
    use pp_workloads::BiasSpec;

    struct Golden {
        n: u64,
        json: &'static str,
        switches: u64,
        events: u64,
        mean_field_fraction: f64,
    }
    let goldens = [
        Golden {
            n: 8_000,
            json: r#"{"result":1,"mode":"single","run":{"outcome":"consensus","interactions":228099,"parallel_time":28.512375,"winner":1,"scheduler":"uniform ordered pairs (self-interactions allowed)","rejection_misses":null,"final":{"supports":[0,8000],"undecided":0}}}"#,
            switches: 4,
            events: 56_384,
            mean_field_fraction: 0.261_290_053_880_113_45,
        },
        Golden {
            n: 100_000,
            json: r#"{"result":1,"mode":"single","run":{"outcome":"consensus","interactions":3096962,"parallel_time":30.96962,"winner":0,"scheduler":"uniform ordered pairs (self-interactions allowed)","rejection_misses":null,"final":{"supports":[100000,0],"undecided":0}}}"#,
            switches: 4,
            events: 499_046,
            mean_field_fraction: 0.393_611_545_766_464,
        },
    ];
    for golden in goldens {
        let scenario = ScenarioConfig::new(golden.n, 2)
            .with_bias(BiasSpec::AdditiveInSqrtNLogN(0.15))
            .with_engine(EngineChoice::Hybrid)
            .with_seed(1);
        let control = RunControl {
            telemetry: Telemetry::enabled(),
            ..RunControl::default()
        };
        let RunVerdict::Finished(outcome) = run_scenario(&scenario, control).unwrap() else {
            panic!("a run without an interrupt hook finishes");
        };
        assert_eq!(result_json(&outcome), golden.json, "n = {}", golden.n);
        let ScenarioOutcome::Single(result) = &outcome else {
            panic!("one replica is a single run");
        };
        let snap = result.telemetry().expect("telemetry was enabled");
        assert_eq!(snap.counter("hybrid.switches"), Some(golden.switches));
        assert_eq!(snap.counter("batched.events_drawn"), Some(golden.events));
        assert_eq!(
            snap.gauge("hybrid.mean_field_fraction").map(f64::to_bits),
            Some(golden.mean_field_fraction.to_bits()),
            "n = {}",
            golden.n
        );
    }
}
