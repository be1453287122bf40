//! Replay-determinism contract of the serve layer.
//!
//! * **Differential**: feeding a reference stream through [`StretchServe`]
//!   produces bit-identical completions to `run_online_with` on the same
//!   instance — the service is the on-line algorithm, re-packaged, on every
//!   backend, warm and cold.
//! * **Zeroed timestamps**: wall-clock fields never influence replay.
//! * **Degradation**: chaos-injected fallbacks and circuit-breaker shedding
//!   are journaled as tiers, so a recovered process reproduces the degraded
//!   schedule bit for bit.
//! * **Legacy tier code**: decision records of the deleted `monge` tier
//!   still recover, replayed on the simplex backend.
//! * **Recorded traces**: a `.strt` recording of a live run replays through
//!   the full pipeline deterministically — bit-identical warm vs. cold on
//!   every backend, and bit-identical to the sealed recording under the
//!   recording backend.
//! * **Group commit**: each acknowledged call syncs the journal exactly
//!   once, a submission and the decision it forces together, and under the
//!   default rotation policy no frame outgrows the active segment's zero
//!   tail, so no such sync commits a file-size change.
//! * **Zero tail across crashes**: a journal crashed twice with its zero
//!   tail in place recovers every acknowledged record both times, with no
//!   torn tail, and lands on the uninterrupted run.

use std::path::{Path, PathBuf};
use std::time::Duration;

use stretch_core::online::run_online_with;
use stretch_core::refstream::reference_instance;
use stretch_core::{BackendKind, OnlineVariant, SolverConfig};
use stretch_platform::fixtures::small_platform;
use stretch_serve::trace::TraceTail;
use stretch_serve::{
    journal, trace, JournalEvent, JournalRecord, JournalWriter, RejectReason, ServeConfig,
    SolveTier, StretchServe, Submission, SubmitOutcome, TailStatus,
};
use stretch_workload::Instance;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "stretch-serve-replay-{name}-{}",
        std::process::id()
    ));
    p
}

/// Streams an instance's jobs (already sorted by release) through a fresh
/// service and drains it.
fn serve_instance(path: &Path, instance: &Instance, config: ServeConfig) -> StretchServe {
    let mut serve = StretchServe::create(path, instance.platform.clone(), config).unwrap();
    for job in &instance.jobs {
        let outcome = serve
            .submit(Submission::new(job.release, job.work, job.databank))
            .unwrap();
        assert!(outcome.is_accepted(), "rejected: {outcome:?}");
    }
    serve.finish().unwrap();
    serve
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// A config whose solve budget a loaded CI machine can never bust, so the
/// tier-count assertions below see no accidental degradation.
fn lenient(solver: SolverConfig) -> ServeConfig {
    let mut config = ServeConfig::with_solver(solver);
    config.solve_budget = Duration::from_secs(60);
    config
}

#[test]
fn service_matches_run_online_on_every_backend_warm_and_cold() {
    let instance = reference_instance(3, 3, 20, 3);
    for backend in BackendKind::ALL {
        for warm_start in [true, false] {
            let solver = SolverConfig {
                backend,
                warm_start,
                incremental: true,
            };
            let expected = run_online_with(&instance, OnlineVariant::Online, solver).unwrap();
            let path = tmp(&format!("diff-{}-{warm_start}", backend.name()));
            let serve = serve_instance(&path, &instance, lenient(solver));
            assert_eq!(
                bits(serve.completions()),
                bits(&expected),
                "backend {} warm {warm_start}: service diverged from run_online",
                backend.name()
            );
            // Only the primary tier ever decided: no degradation happened.
            let tiers = serve.metrics().decisions_by_tier;
            assert_eq!(
                tiers[SolveTier::of_backend(backend).code() as usize],
                serve.metrics().decisions
            );
            std::fs::remove_dir_all(&path).unwrap();
        }
    }
}

#[test]
fn zeroed_timestamps_replay_to_identical_state() {
    let instance = reference_instance(3, 3, 20, 3);
    let path = tmp("zero-live");
    let zeroed = tmp("zero-copy");
    let serve = serve_instance(&path, &instance, ServeConfig::default());
    let live_digest = serve.state_digest();
    drop(serve);

    journal::rewrite_zeroed(&path, &zeroed).unwrap();
    let (mut a, ra) =
        StretchServe::recover(&path, instance.platform.clone(), ServeConfig::default()).unwrap();
    let (mut b, rb) =
        StretchServe::recover(&zeroed, instance.platform.clone(), ServeConfig::default()).unwrap();
    assert_eq!(ra, rb);
    assert_eq!(
        a.state_digest(),
        b.state_digest(),
        "wall-clock stamps leaked into replay"
    );
    a.finish().unwrap();
    b.finish().unwrap();
    assert_eq!(a.state_digest(), b.state_digest());
    assert_eq!(a.state_digest(), live_digest);
    assert_eq!(bits(a.completions()), bits(b.completions()));
    std::fs::remove_dir_all(&path).unwrap();
    std::fs::remove_dir_all(&zeroed).unwrap();
}

#[test]
fn legacy_tier_code_zero_journals_recover_on_the_simplex_backend() {
    // Journals written while the deleted `monge` backend was the default
    // carry tier code 0 on their decision records.  Nothing writes that
    // code any more, so this pins the codec promise: such a journal still
    // recovers, replays code 0 on the simplex backend, and lands on the
    // uninterrupted run bit for bit.
    let instance = reference_instance(3, 3, 20, 3);
    let config = lenient(SolverConfig::network_simplex());
    let full_path = tmp("legacy-full");
    let full = serve_instance(&full_path, &instance, config.clone());

    let live_path = tmp("legacy-live");
    {
        let mut live =
            StretchServe::create(&live_path, instance.platform.clone(), config.clone()).unwrap();
        for job in &instance.jobs {
            live.submit(Submission::new(job.release, job.work, job.databank))
                .unwrap();
        }
        let m = live.metrics();
        assert_eq!(
            m.decisions_by_tier[SolveTier::Simplex.code() as usize],
            m.decisions
        );
        // Dropped without finish(): the "crash".
    }

    // Rewrite every decision record to the legacy tier.
    let legacy_path = tmp("legacy-rewritten");
    let scan = journal::scan_dir(&live_path).unwrap();
    assert!(
        scan.snapshots.is_empty(),
        "recovery must replay every record"
    );
    std::fs::create_dir_all(&legacy_path).unwrap();
    for index in scan.chain() {
        let sealed = scan.sealed.contains(&index);
        let (records, tail) =
            journal::load(&journal::segment_path(&live_path, index, sealed)).unwrap();
        let mut writer =
            JournalWriter::create(&journal::segment_path(&legacy_path, index, sealed)).unwrap();
        for record in records {
            let event = match record.event {
                JournalEvent::Decision { .. } => JournalEvent::Decision {
                    tier: SolveTier::Monge,
                },
                submitted => submitted,
            };
            writer.append(&JournalRecord { event, ..record }).unwrap();
        }
        // A clean tail, ending where the rewritten frames (same kinds, same
        // sizes) end.
        assert_eq!(
            tail,
            TailStatus::Clean {
                valid_bytes: writer.frame_end()
            }
        );
    }

    let (mut recovered, report) =
        StretchServe::recover(&legacy_path, instance.platform.clone(), config).unwrap();
    assert_eq!(report.snapshot, None);
    assert!(report.decisions > 0, "the stream replayed no decision");
    assert_eq!(
        recovered.metrics().decisions_by_tier[SolveTier::Monge.code() as usize],
        report.decisions
    );
    recovered.finish().unwrap();
    assert_eq!(recovered.state_digest(), full.state_digest());
    assert_eq!(bits(recovered.completions()), bits(full.completions()));
    for path in [&full_path, &live_path, &legacy_path] {
        std::fs::remove_dir_all(path).unwrap();
    }
}

#[test]
fn chaos_fallbacks_are_journaled_and_replayed() {
    let instance = reference_instance(3, 3, 20, 3);
    // Decision 0: simplex fails -> primal-dual.  Decision 1: simplex and
    // primal-dual fail -> EDF.  Everything else on the primary rung.
    let mut config = lenient(SolverConfig {
        backend: BackendKind::NetworkSimplex,
        warm_start: true,
        incremental: true,
    });
    config.chaos_tier_failures = vec![
        (0, SolveTier::Simplex),
        (1, SolveTier::Simplex),
        (1, SolveTier::PrimalDual),
    ];
    let path = tmp("chaos");
    let mut live = serve_instance(&path, &instance, config.clone());
    let m = live.metrics().clone();
    assert!(
        m.decisions >= 3,
        "stream too short: {} decisions",
        m.decisions
    );
    assert_eq!(
        m.decisions_by_tier[SolveTier::PrimalDual.code() as usize],
        1
    );
    assert_eq!(m.decisions_by_tier[SolveTier::Edf.code() as usize], 1);
    assert_eq!(
        m.decisions_by_tier[SolveTier::Simplex.code() as usize],
        m.decisions - 2
    );
    assert_eq!(m.fallbacks, 3);
    live.finish().unwrap();

    // Recovery must reproduce the degraded tiers from the journal alone —
    // the recovering config carries no chaos.
    let (mut recovered, report) = StretchServe::recover(
        &path,
        instance.platform.clone(),
        ServeConfig::with_solver(config.solver),
    )
    .unwrap();
    assert_eq!(report.decisions, m.decisions);
    let rm = recovered.metrics().clone();
    assert_eq!(rm.decisions_by_tier, m.decisions_by_tier);
    recovered.finish().unwrap();
    assert_eq!(recovered.state_digest(), live.state_digest());
    assert_eq!(bits(recovered.completions()), bits(live.completions()));
    std::fs::remove_dir_all(&path).unwrap();
}

#[test]
fn breaker_sheds_to_edf_and_replays_identically() {
    let instance = reference_instance(3, 3, 20, 3);
    // A zero budget busts every solve; after `breaker_threshold` busts the
    // breaker opens and sheds `breaker_cooldown` decisions to EDF.
    let config = ServeConfig {
        solve_budget: Duration::ZERO,
        breaker_threshold: 2,
        breaker_cooldown: 3,
        ..ServeConfig::default()
    };
    let path = tmp("breaker");
    let mut live = serve_instance(&path, &instance, config.clone());
    let m = live.metrics().clone();
    assert!(m.budget_busts >= 2, "busts {}", m.budget_busts);
    assert!(m.breaker_opens >= 1, "breaker never opened");
    assert!(
        m.shed_decisions >= config.breaker_cooldown as u64
            || m.decisions < (config.breaker_threshold + config.breaker_cooldown) as u64,
        "breaker opened but shed only {} decisions",
        m.shed_decisions
    );
    assert!(m.decisions_by_tier[SolveTier::Edf.code() as usize] >= m.shed_decisions);
    live.finish().unwrap();

    // The shed EDF decisions are in the journal; recovery (with a sane
    // budget) replays the identical degraded schedule.
    let (mut recovered, _) =
        StretchServe::recover(&path, instance.platform.clone(), ServeConfig::default()).unwrap();
    assert_eq!(
        recovered.metrics().decisions_by_tier,
        m.decisions_by_tier,
        "replayed tiers diverged from the live degradation"
    );
    recovered.finish().unwrap();
    assert_eq!(recovered.state_digest(), live.state_digest());
    assert_eq!(bits(recovered.completions()), bits(live.completions()));
    std::fs::remove_dir_all(&path).unwrap();
}

#[test]
fn malformed_and_out_of_order_submissions_are_dead_lettered() {
    let path = tmp("dlq");
    let mut serve = StretchServe::create(&path, small_platform(), ServeConfig::default()).unwrap();
    assert!(serve
        .submit(Submission::new(5.0, 100.0, 0))
        .unwrap()
        .is_accepted());

    let rejected = [
        Submission::new(f64::NAN, 10.0, 0),
        Submission::new(-1.0, 10.0, 0),
        Submission::new(5.0, f64::NAN, 0),
        Submission::new(5.0, -3.0, 0),
        Submission::new(5.0, 0.0, 0),
        Submission::new(5.0, 10.0, 42),
        Submission::new(1.0, 10.0, 0), // behind the frontier
    ];
    for s in rejected {
        match serve.submit(s).unwrap() {
            SubmitOutcome::Rejected(_) => {}
            SubmitOutcome::Accepted(id) => panic!("{s:?} accepted as job {id}"),
        }
    }
    let reasons: Vec<_> = serve.dlq().letters().map(|l| l.reason).collect();
    assert_eq!(reasons.len(), 7);
    assert!(matches!(reasons[0], RejectReason::InvalidJob(_)));
    assert!(matches!(reasons[5], RejectReason::UnknownDatabank { .. }));
    assert!(matches!(
        reasons[6],
        RejectReason::OutOfOrder { frontier, .. } if frontier == 5.0
    ));

    // The accepted stream is unaffected by the garbage around it.
    serve.finish().unwrap();
    assert_eq!(serve.metrics().accepted, 1);
    assert_eq!(serve.metrics().dead_lettered, 7);
    assert!(serve.completions()[0].is_finite());
    // Closed service rejects further submissions instead of panicking.
    assert_eq!(
        serve.submit(Submission::new(9.0, 10.0, 0)).unwrap(),
        SubmitOutcome::Rejected(RejectReason::Closed)
    );
    std::fs::remove_dir_all(&path).unwrap();
}

/// Records `instance` through a full serve run under `solver` and returns
/// the sealed trace plus the recording digest.
fn record_trace(name: &str, instance: &Instance, solver: SolverConfig) -> (trace::Trace, u64) {
    let trace_path = tmp(&format!("trace-{name}.strt"));
    let journal_dir = tmp(&format!("trace-{name}-journal"));
    let _ = std::fs::remove_dir_all(&journal_dir);
    let submissions: Vec<Submission> = instance
        .jobs
        .iter()
        .map(|j| Submission::new(j.release, j.work, j.databank))
        .collect();
    let run = trace::record_run(
        &trace_path,
        &journal_dir,
        instance.platform.clone(),
        lenient(solver),
        &submissions,
    )
    .unwrap();
    assert_eq!(run.rejected, 0, "reference stream partially rejected");
    let (recorded, tail) = trace::load(&trace_path).unwrap();
    assert_eq!(tail, TraceTail::Clean);
    assert!(recorded.is_sealed());
    std::fs::remove_file(&trace_path).unwrap();
    std::fs::remove_dir_all(&journal_dir).unwrap();
    (recorded, run.digest)
}

#[test]
fn recorded_traces_replay_deterministically_across_the_backend_matrix() {
    // A generic stream admits degenerate System-(2) optima where the
    // primal-dual backend legitimately picks a different allocation than
    // the simplex, so the cross-backend contract is per backend: warm and
    // cold replays are bit-identical, and the recording backend's cells
    // reproduce the sealed digest and completions exactly.
    let instance = reference_instance(3, 3, 20, 3);
    let recording = SolverConfig {
        backend: BackendKind::NetworkSimplex,
        warm_start: true,
        incremental: true,
    };
    let (recorded, sealed_digest) = record_trace("generic", &instance, recording);
    let matrix = trace::replay_matrix(&recorded, &instance.platform).unwrap();
    assert_eq!(matrix.len(), BackendKind::ALL.len() * 2);

    let cell = |backend: BackendKind, warm_start: bool| {
        &matrix
            .iter()
            .find(|(c, _)| c.backend == backend && c.warm_start == warm_start)
            .unwrap()
            .1
    };
    for backend in BackendKind::ALL {
        let warm = cell(backend, true);
        let cold = cell(backend, false);
        assert_eq!(
            warm.digest,
            cold.digest,
            "backend {}: warm and cold replays diverged",
            backend.name()
        );
        assert_eq!(bits(&warm.completions), bits(&cold.completions));
    }
    for warm_start in [true, false] {
        let outcome = cell(recording.backend, warm_start);
        assert_eq!(outcome.digest, sealed_digest);
        assert!(
            outcome.matches_recorded,
            "recording backend (warm={warm_start}) does not reproduce its own recording"
        );
    }
}

#[test]
fn unique_optima_streams_replay_identically_in_every_matrix_cell() {
    // The six-job reference stream of the journal tests has a unique
    // System-(2) optimum at every decision point, so the strongest form
    // of the contract holds: both backends × warm/cold land on the
    // recorded digest and completions bit for bit.
    let stream = [
        (0.0, 300.0, 0),
        (0.0, 60.0, 1),
        (2.5, 120.0, 0),
        (4.0, 30.0, 1),
        (6.0, 90.0, 0),
        (7.5, 45.0, 1),
    ];
    let jobs = stream
        .iter()
        .map(|&(release, work, databank)| stretch_workload::Job::new(0, release, work, databank))
        .collect();
    let instance = Instance::new(small_platform(), jobs);
    let (recorded, sealed_digest) = record_trace(
        "unique",
        &instance,
        SolverConfig {
            backend: BackendKind::PrimalDual,
            warm_start: true,
            incremental: true,
        },
    );
    let matrix = trace::replay_matrix(&recorded, &instance.platform).unwrap();
    for (config, outcome) in &matrix {
        assert_eq!(
            outcome.digest,
            sealed_digest,
            "cell {}/warm={} diverged from the recording",
            config.backend.name(),
            config.warm_start
        );
        assert!(outcome.matches_recorded);
    }
}

#[test]
fn recovery_mid_stream_continues_to_the_uninterrupted_result() {
    // Split the stream at every prefix point: run the first k submissions in
    // one "process", recover, run the rest, and compare against the
    // uninterrupted run — the in-process version of the SIGKILL harness.
    let instance = reference_instance(3, 3, 12, 7);
    let full_path = tmp("split-full");
    let full = serve_instance(&full_path, &instance, ServeConfig::default());
    for k in 0..=instance.jobs.len() {
        let path = tmp(&format!("split-{k}"));
        {
            let mut first =
                StretchServe::create(&path, instance.platform.clone(), ServeConfig::default())
                    .unwrap();
            for job in &instance.jobs[..k] {
                first
                    .submit(Submission::new(job.release, job.work, job.databank))
                    .unwrap();
            }
            // Dropped without finish(): the "crash".
        }
        let (mut second, _) =
            StretchServe::recover(&path, instance.platform.clone(), ServeConfig::default())
                .unwrap();
        for job in &instance.jobs[k..] {
            let outcome = second
                .submit(Submission::new(job.release, job.work, job.databank))
                .unwrap();
            assert!(outcome.is_accepted(), "k={k}: {outcome:?}");
        }
        second.finish().unwrap();
        assert_eq!(
            second.state_digest(),
            full.state_digest(),
            "k={k}: recovered run diverged"
        );
        assert_eq!(bits(second.completions()), bits(full.completions()));
        std::fs::remove_dir_all(&path).unwrap();
    }
    std::fs::remove_dir_all(&full_path).unwrap();
}

#[test]
fn each_acknowledged_call_issues_exactly_one_journal_sync() {
    // Group commit: a submission that moves the frontier writes the
    // decision it forces and its own record, then syncs once; a dead-lettered
    // submission touches no journal; `finish` syncs once.  The default
    // rotation policy never seals a 12-job stream, so no seal or snapshot
    // sync enters the count.
    let instance = reference_instance(3, 3, 12, 7);
    let path = tmp("sync-count");
    let mut serve =
        StretchServe::create(&path, instance.platform.clone(), ServeConfig::default()).unwrap();
    let mut forcing = 0;
    for (i, job) in instance.jobs.iter().enumerate() {
        let syncs = serve.journal_syncs();
        let garbage = serve
            .submit(Submission::new(job.release, -1.0, job.databank))
            .unwrap();
        assert!(!garbage.is_accepted(), "job {i}: garbage accepted");
        assert_eq!(
            serve.journal_syncs(),
            syncs,
            "job {i}: a dead-lettered submission synced"
        );
        let decisions = serve.metrics().decisions;
        let outcome = serve
            .submit(Submission::new(job.release, job.work, job.databank))
            .unwrap();
        assert!(outcome.is_accepted(), "job {i}: {outcome:?}");
        let forced = serve.metrics().decisions > decisions;
        forcing += usize::from(forced);
        assert_eq!(
            serve.journal_syncs(),
            syncs + 1,
            "job {i}: an accepted submission (forced a decision: {forced}) must sync once"
        );
    }
    assert!(
        forcing >= 3,
        "only {forcing} submissions forced a decision: the gate saw no group commit"
    );
    let syncs = serve.journal_syncs();
    serve.finish().unwrap();
    assert_eq!(serve.journal_syncs(), syncs + 1, "finish must sync once");
    serve.finish().unwrap();
    assert_eq!(serve.journal_syncs(), syncs + 1, "a second finish synced");
    assert_eq!(
        journal::scan_dir(&path).unwrap().open,
        Some(0),
        "the stream rotated"
    );
    std::fs::remove_dir_all(&path).unwrap();
}

#[test]
fn no_append_outgrows_the_zero_tail_under_the_default_policy() {
    // Each frame overwrites the active segment's pre-written zero tail, so
    // the one sync of each acknowledged call commits data only: the file's
    // length holds still until `finish` cuts the tail.
    let instance = reference_instance(3, 3, 20, 3);
    let path = tmp("tail-growths");
    let mut serve =
        StretchServe::create(&path, instance.platform.clone(), ServeConfig::default()).unwrap();
    let segment = journal::segment_path(&path, 0, false);
    let file_len = || std::fs::metadata(&segment).unwrap().len();
    let live_len = journal::MAGIC.len() as u64 + journal::ZERO_TAIL_LEN;
    assert_eq!(file_len(), live_len);
    for (i, job) in instance.jobs.iter().enumerate() {
        let outcome = serve
            .submit(Submission::new(job.release, job.work, job.databank))
            .unwrap();
        assert!(outcome.is_accepted(), "job {i}: {outcome:?}");
        assert_eq!(
            serve.tail_growths(),
            0,
            "job {i}: an append extended the file"
        );
        assert_eq!(
            file_len(),
            live_len,
            "job {i}: the segment's length changed"
        );
    }
    serve.finish().unwrap();
    assert_eq!(serve.tail_growths(), 0, "the drain extended the file");
    let (records, tail) = journal::load(&segment).unwrap();
    assert_eq!(
        records.len() as u64,
        serve.metrics().accepted + serve.metrics().decisions
    );
    assert_eq!(
        tail,
        TailStatus::Clean {
            valid_bytes: file_len()
        },
        "finish left the zero tail"
    );
    assert_eq!(
        journal::scan_dir(&path).unwrap().open,
        Some(0),
        "the stream rotated"
    );
    std::fs::remove_dir_all(&path).unwrap();
}

#[test]
fn a_padded_journal_crashed_twice_keeps_every_acknowledged_record() {
    // Recovery must reopen the active segment at the frame end the parser
    // found, not at the file length: appending after the zero tail would
    // hide the next process's records behind a zero header, and the second
    // recovery would drop them.
    let instance = reference_instance(3, 3, 20, 3);
    let full_path = tmp("double-crash-full");
    let full = serve_instance(&full_path, &instance, ServeConfig::default());
    let path = tmp("double-crash");
    let jobs = &instance.jobs;
    let (first, second) = (jobs.len() / 3, 2 * jobs.len() / 3);
    let submit = |serve: &mut StretchServe, range: std::ops::Range<usize>| {
        for job in &jobs[range] {
            let outcome = serve
                .submit(Submission::new(job.release, job.work, job.databank))
                .unwrap();
            assert!(outcome.is_accepted(), "{outcome:?}");
        }
    };
    // Records acknowledged so far, and the state they leave.
    let acknowledged = |serve: &StretchServe| {
        let m = serve.metrics();
        (m.accepted + m.decisions, serve.state_digest())
    };

    let recover = |crash: &str, expected: (u64, u64)| {
        let (serve, report) =
            StretchServe::recover(&path, instance.platform.clone(), ServeConfig::default())
                .unwrap();
        assert_eq!(report.torn, None, "{crash}: padding read as a torn tail");
        assert_eq!(report.truncated_bytes, 0, "{crash}: {report:?}");
        assert_eq!(
            (report.records as u64, serve.state_digest()),
            expected,
            "{crash}: acknowledged records lost"
        );
        serve
    };

    let mut serve =
        StretchServe::create(&path, instance.platform.clone(), ServeConfig::default()).unwrap();
    submit(&mut serve, 0..first);
    let expected = acknowledged(&serve);
    drop(serve); // the first crash: no drain, the zero tail stays
    let mut serve = recover("first crash", expected);
    submit(&mut serve, first..second);
    let expected = acknowledged(&serve);
    drop(serve); // the second crash
    let mut serve = recover("second crash", expected);
    submit(&mut serve, second..jobs.len());
    serve.finish().unwrap();
    assert_eq!(serve.state_digest(), full.state_digest());
    assert_eq!(bits(serve.completions()), bits(full.completions()));
    std::fs::remove_dir_all(&path).unwrap();
    std::fs::remove_dir_all(&full_path).unwrap();
}
