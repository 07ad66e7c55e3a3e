//! Serving-layer integration suite, exercised through the `mako` facade
//! (`mako::server` / `mako::prelude`) exactly as an embedding application
//! would use it.
//!
//! The contracts under test (DESIGN.md §15):
//!
//! * **Chaos invariant** — whatever seeded faults a serve survives (worker
//!   deaths, checkpoint-write failures, stragglers, poisoned Fock builds),
//!   every *completed* job's energy is bitwise identical to a quiet solo
//!   [`mako::scf::ScfDriver`] run of the same spec. Scheduling and fault
//!   recovery may change *when* chemistry happens, never *what* it computes.
//! * **Typed containment** — every anomaly surfaces as a [`JobOutcome`]
//!   variant; a tenant's job can never panic the server or poison a
//!   neighbouring tenant.
//! * **Determinism** — a serve is a pure function of
//!   `(specs, config, chaos)`: replaying it, on any host thread count,
//!   reproduces outcomes, ledger, and makespan to the bit.

use proptest::prelude::*;

use mako::chem::builders;
use mako::prelude::*;
use mako::server::{AdmissionConfig, RejectReason, ServeReport, ServerChaos, ServerConfig};

/// A serve digest for determinism checks: outcome labels, energy bits,
/// ledger, and makespan bits folded into one comparable value.
fn digest(report: &ServeReport) -> (Vec<String>, String, u64) {
    let outcomes = report
        .outcomes
        .iter()
        .map(|o| {
            let bits = o.energy().map(f64::to_bits).unwrap_or(0);
            format!("{}:{bits:016x}", o.label())
        })
        .collect();
    (
        outcomes,
        format!("{:?}", report.ledger),
        report.makespan.to_bits(),
    )
}

/// The standard three-tenant mixed workload used across this suite.
fn workload() -> Vec<JobSpec> {
    vec![
        JobSpec::new("alice", PriorityClass::Interactive, builders::water()),
        JobSpec::new("bob", PriorityClass::Batch, builders::methane()).at(1e-4),
        JobSpec::new("bob", PriorityClass::Batch, builders::ammonia()).at(2e-4),
        JobSpec::new("carol", PriorityClass::BestEffort, builders::perturbed_water(5, 2e-3))
            .at(3e-4),
    ]
}

#[test]
fn quiet_multi_tenant_serve_is_bitwise_vs_solo() {
    let server = MakoServer::default();
    let jobs = workload();
    let report = server.serve_quiet(&jobs);
    assert_eq!(report.ledger.admitted, jobs.len());
    assert_eq!(report.ledger.completed, jobs.len());
    for (spec, outcome) in jobs.iter().zip(&report.outcomes) {
        let solo = server.run_solo(spec).expect("solo run");
        let job = outcome.report().expect("quiet serve completes every job");
        assert_eq!(
            job.energy.to_bits(),
            solo.energy.to_bits(),
            "{}: served energy diverged from solo ({:.15} vs {:.15})",
            spec.tenant,
            job.energy,
            solo.energy
        );
        assert_eq!(job.iterations, solo.iterations);
        assert!(job.converged);
        assert!(job.finished_at >= job.started_at);
        assert!(job.started_at >= job.submitted_at);
    }
}

#[test]
fn admission_quota_and_shedding_through_facade() {
    // One worker, tiny caps: a burst from one tenant trips its quota, a
    // burst of distinct tenants walks the queue through Degraded into
    // Shedding — and interactive work is still admitted at peak pressure.
    let config = ServerConfig {
        workers: 1,
        admission: AdmissionConfig {
            queue_soft_cap: 2,
            queue_hard_cap: 4,
            default_tenant_quota: 2,
            tenant_quotas: Vec::new(),
        },
        ..ServerConfig::default()
    };
    let server = MakoServer::new(config);
    let mut jobs: Vec<JobSpec> = (0..4)
        .map(|i| {
            JobSpec::new("bob", PriorityClass::Batch, builders::water()).at(i as f64 * 1e-7)
        })
        .collect();
    for i in 0..6 {
        let class = if i % 2 == 0 { PriorityClass::Batch } else { PriorityClass::BestEffort };
        jobs.push(
            JobSpec::new(&format!("tenant{i}"), class, builders::water())
                .at(1e-6 + i as f64 * 1e-7),
        );
    }
    jobs.push(JobSpec::new("alice", PriorityClass::Interactive, builders::water()).at(2e-6));

    let report = server.serve_quiet(&jobs);
    let mut quota = 0;
    let mut shed = 0;
    for outcome in &report.outcomes {
        if let JobOutcome::Rejected { reason } = outcome {
            match reason {
                RejectReason::TenantQuotaExceeded { tenant, limit } => {
                    assert_eq!(tenant, "bob");
                    assert_eq!(*limit, 2);
                    quota += 1;
                }
                RejectReason::QueueFull { depth, cap } => {
                    assert!(depth >= cap, "queue-full below the cap: {depth} < {cap}");
                    shed += 1;
                }
                RejectReason::LoadShed { class } => {
                    assert_ne!(
                        *class,
                        PriorityClass::Interactive,
                        "interactive must never be load-shed"
                    );
                    shed += 1;
                }
            }
        }
    }
    assert!(quota >= 1, "tenant quota never fired");
    assert!(shed >= 1, "load shedding never fired");
    assert_eq!(report.ledger.rejected, quota + shed);
    assert!(
        matches!(report.outcomes.last(), Some(JobOutcome::Completed(_))),
        "the interactive job must be admitted and completed at peak pressure: {:?}",
        report.outcomes.last()
    );
    assert!(
        report.ledger.state_transitions >= 1,
        "the shedding state machine never left Normal"
    );
}

#[test]
fn chaos_serve_contains_faults_and_stays_bitwise() {
    // A worker dies mid-quantum, another straggles 24× — past the attempt
    // timeout — one job's Fock build is poisoned, and every fifth
    // checkpoint write fails. None of this may panic, and whatever
    // completes must match solo to the bit.
    let jobs = workload();
    let quiet = MakoServer::default();
    let solos: Vec<_> = jobs.iter().map(|s| quiet.run_solo(s).expect("solo run")).collect();
    // Straggler bar: generous for healthy attempts, fatal for the 24×
    // straggler. Derived from the heaviest solo job so it scales with the
    // workload.
    let max_solo_seconds = solos.iter().map(|r| r.total_seconds).fold(0.0f64, f64::max);
    let server = MakoServer::new(ServerConfig {
        workers: 3,
        attempt_timeout: 3.0 * max_solo_seconds,
        ..ServerConfig::default()
    });
    let chaos = ServerChaos::seeded(11, 3)
        .kill_worker(1, 0.1)
        .slow_worker(2, 24.0)
        .with_poison(1, 2)
        .with_ckpt_io_rate(0.2);
    let report = server.serve(&jobs, &chaos);

    assert_eq!(report.outcomes.len(), jobs.len());
    assert!(
        report.ledger.completed >= 1,
        "a 3-worker serve losing one worker must still finish work: {:?}",
        report.ledger
    );
    assert!(
        report.ledger.timeouts >= 1,
        "the straggler never tripped the attempt timeout: {:?}",
        report.ledger
    );
    for ((spec, solo), outcome) in jobs.iter().zip(&solos).zip(&report.outcomes) {
        if let Some(job) = outcome.report() {
            assert_eq!(
                job.energy.to_bits(),
                solo.energy.to_bits(),
                "{}: chaos changed the chemistry ({:.15} vs {:.15})",
                spec.tenant,
                job.energy,
                solo.energy
            );
            assert_eq!(job.iterations, solo.iterations);
        }
    }
    let ledger = &report.ledger;
    assert_eq!(
        ledger.completed + ledger.failed + ledger.deadline_exceeded,
        ledger.admitted,
        "every admitted job needs a terminal outcome: {ledger:?}"
    );
}

#[test]
fn serve_replay_is_deterministic() {
    let server = MakoServer::new(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let jobs = workload();
    let chaos = ServerChaos::seeded(7, 2).kill_worker(0, 0.6).with_ckpt_io_rate(0.3);
    let a = digest(&server.serve(&jobs, &chaos));
    let b = digest(&server.serve(&jobs, &chaos));
    assert_eq!(a, b, "same (specs, config, chaos) must replay identically");
}

#[test]
fn serve_is_bitwise_across_host_thread_counts() {
    // The virtual clock prices work from the simulated device model, so the
    // host rayon pool width must be invisible in every served number.
    let jobs = workload();
    let chaos = ServerChaos::seeded(11, 2).kill_worker(1, 0.4);
    let run = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool")
            .install(|| {
                let server = MakoServer::new(ServerConfig {
                    workers: 2,
                    ..ServerConfig::default()
                });
                digest(&server.serve(&jobs, &chaos))
            })
    };
    let narrow = run(1);
    let wide = run(4);
    assert_eq!(narrow, wide, "host thread count leaked into a served result");
}

#[test]
fn interactive_job_starts_within_one_quantum_of_batch_work() {
    // No-starvation contract on a single worker: an interactive arrival
    // behind a long batch job waits at most one preemption quantum.
    let config = ServerConfig {
        workers: 1,
        quantum_iterations: 2,
        ..ServerConfig::default()
    };
    let server = MakoServer::new(config);
    let batch = JobSpec::new("bob", PriorityClass::Batch, builders::methane());
    let solo = server.run_solo(&batch).expect("solo batch run");
    let quantum_seconds: f64 = solo.iteration_seconds.iter().take(2).sum();

    let ui = JobSpec::new("alice", PriorityClass::Interactive, builders::water()).at(1e-6);
    let report = server.serve_quiet(&[batch, ui]);
    assert_eq!(report.ledger.completed, 2);
    assert!(report.ledger.preemptions >= 1, "batch was never preempted");

    let ui_report = report.outcomes[1].report().expect("interactive completes");
    let wait = ui_report.started_at - ui_report.submitted_at;
    assert!(
        wait <= quantum_seconds + 1e-12,
        "interactive waited {wait:.6e} s > one quantum ({quantum_seconds:.6e} s)"
    );

    // Preemption is invisible in the batch chemistry.
    let batch_report = report.outcomes[0].report().expect("batch completes");
    assert_eq!(batch_report.energy.to_bits(), solo.energy.to_bits());
}

#[test]
fn impossible_deadline_is_typed_not_hung() {
    let server = MakoServer::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let job = JobSpec::new("alice", PriorityClass::Batch, builders::water())
        .with_deadline(1e-12);
    let report = server.serve_quiet(&[job]);
    match &report.outcomes[0] {
        JobOutcome::DeadlineExceeded { deadline_seconds, .. } => {
            assert_eq!(*deadline_seconds, 1e-12);
        }
        other => panic!("expected a deadline outcome, got {other:?}"),
    }
    assert_eq!(report.ledger.deadline_exceeded, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The chaos invariant, quantified over the fault space: for ANY seed
    /// and any single-worker death point, the serve terminates, types every
    /// outcome, and every completion is bitwise solo-identical.
    #[test]
    fn any_seeded_chaos_serve_is_contained(
        seed in any::<u64>(),
        victim in 0usize..2,
        fraction in 0.0f64..1.0,
        ckpt_rate in 0.0f64..0.6,
    ) {
        let server = MakoServer::new(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });
        let jobs = vec![
            JobSpec::new("alice", PriorityClass::Interactive, builders::water()),
            JobSpec::new("bob", PriorityClass::Batch, builders::methane()).at(1e-4),
            JobSpec::new("carol", PriorityClass::BestEffort, builders::water()).at(2e-4),
        ];
        let chaos = ServerChaos::seeded(seed, 2)
            .kill_worker(victim, fraction)
            .with_ckpt_io_rate(ckpt_rate);
        let report = server.serve(&jobs, &chaos);
        prop_assert_eq!(report.outcomes.len(), jobs.len());
        let ledger = &report.ledger;
        prop_assert_eq!(
            ledger.completed + ledger.failed + ledger.deadline_exceeded,
            ledger.admitted
        );
        for (spec, outcome) in jobs.iter().zip(&report.outcomes) {
            if let Some(job) = outcome.report() {
                let solo = server.run_solo(spec).expect("solo run");
                prop_assert!(
                    job.energy.to_bits() == solo.energy.to_bits(),
                    "{}: chaos changed the chemistry",
                    spec.tenant
                );
            }
        }
    }
}
