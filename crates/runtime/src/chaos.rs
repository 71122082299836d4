//! Test-only chaos layer: seeded fault injection at the runtime's
//! decision edges.
//!
//! The runtime's hardest bugs — lost wakeups, stranded workers, leaked
//! tasks, torn hot teams — live in the narrow windows between a
//! decision and its publication: between priming a doorbell and waking
//! its chain, between grabbing a chunk and running it, between a
//! worker's last task and its completion signal. Each of PRs 4–6 fixed
//! one such bug found by hand; this module hunts the whole class
//! systematically, in the style of filibuster-like fault-injection
//! suites: every interesting edge carries a `chaos_point!`
//! invocation, and a seeded plan decides — per site, per visit — to
//! inject a panic, a spurious (spec-legal) cancellation request, an
//! artificial delay that widens the race window, or a worker-spawn
//! failure.
//!
//! ## Cost model
//!
//! Everything here is test-only, behind the `chaos` cargo feature.
//! Without the feature the `chaos_point!` macro expands to the
//! constant `None` — the site expression is *discarded unevaluated*, so
//! production builds carry zero instructions per site (asserted by the
//! `disabled_macro_expands_to_none` test below, which passes an
//! undefined symbol through the macro). With the feature but no armed
//! plan, a site costs one relaxed atomic load.
//!
//! ## Fault legality
//!
//! Injection must only produce states a legal program could reach:
//!
//! * **Panics** are thrown only at sites executing *inside* a region
//!   body or task body (under `run_region`'s / the joining master's
//!   `catch_unwind`), where a user closure could equally panic. The
//!   payload is `ChaosPanic` so tests can tell injected panics from
//!   real bugs. Sites in runtime-internal code (doorbell prime/ring,
//!   park, spawn) never configure the panic fault.
//! * **Cancels** are *requests*: the call site routes them through
//!   `ThreadCtx::cancel`, which self-gates on the region's `cancel-var`
//!   snapshot exactly as a user's `omp_cancel!` would. No flag is ever
//!   set directly.
//! * **Delays** (bounded short sleeps) are legal anywhere a thread can
//!   be preempted — which is everywhere. They are the workhorse for
//!   ordering bugs: a delay between doorbell prime and wake is exactly
//!   the schedule that exposes a lost wakeup.
//! * **Spawn failures** are returned to `pool::spawn_worker`, which
//!   already degrades gracefully (PR 6): roll back the thread-limit
//!   reservation, warn, fork a short team.
//!
//! ## Replay
//!
//! A failing soak iteration prints `ROMP_CHAOS_SEED=<n>`; exporting
//! that variable makes `tests/chaos.rs` re-run exactly that plan first.
//! Deterministic regression tests sidestep RNG entirely: a plan with
//! probability 1.0 and a small budget injects on the first visit(s) to
//! its site regardless of thread interleaving.

/// Where a fault can be injected. Always compiled (the macro's argument
/// type), costs nothing when the `chaos` feature is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// A worksharing loop is about to run one chunk (`ws_for_*`).
    ChunkGrab,
    /// An explicit task body is about to run (`TaskSystem::execute`).
    TaskExecute,
    /// A thread is about to hunt other deques (`pop_or_steal`).
    TaskSteal,
    /// A thread arrived at a team barrier (`TeamBarrier::wait`).
    BarrierEntry,
    /// The master is priming a hot worker's doorbell (`pool::prime`).
    DoorbellPrime,
    /// The master is waking a hot worker's doorbell (`pool::ring`).
    DoorbellRing,
    /// A waiter reached the park rung of its idle ladder.
    Park,
    /// The pool is about to spawn a worker OS thread.
    WorkerSpawn,
    /// A cancellation check / barrier with a legal cancel edge.
    CancelCheck,
}

/// Faults a call site must act on itself. `Panic` and `Delay` are
/// performed centrally by `poke`; these two need site-local handling
/// (route a cancel request, fail a spawn).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injected {
    /// Issue a (self-gating) cancellation request at this edge.
    Cancel,
    /// Report worker-spawn failure at this edge.
    SpawnFail,
}

/// The injection hook. With the `chaos` feature this forwards the site
/// to [`poke`]; without it the expansion is the constant `None` and the
/// site expression is discarded **unevaluated** — release builds carry
/// no trace of the argument.
#[cfg(feature = "chaos")]
macro_rules! chaos_point {
    ($site:expr) => {
        $crate::chaos::poke($site)
    };
}

/// The injection hook (disabled expansion: constant `None`).
#[cfg(not(feature = "chaos"))]
macro_rules! chaos_point {
    ($site:expr) => {
        ::core::option::Option::<$crate::chaos::Injected>::None
    };
}

pub(crate) use chaos_point;

#[cfg(feature = "chaos")]
pub use armed::*;

#[cfg(feature = "chaos")]
mod armed {
    use super::{Injected, Site};
    use parking_lot::RwLock;
    use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
    use std::sync::Arc;

    /// Fault kinds a plan can attach to a site.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Fault {
        /// `panic_any(ChaosPanic)` — thrown inside [`poke`].
        Panic,
        /// Sleep for the plan's delay duration, then proceed normally.
        Delay,
        /// Return [`Injected::Cancel`] to the call site.
        Cancel,
        /// Return [`Injected::SpawnFail`] to the call site.
        SpawnFail,
    }

    /// Panic payload of an injected panic, so tests (and humans reading
    /// a backtrace) can tell chaos from a real bug.
    #[derive(Debug, Clone, Copy)]
    pub struct ChaosPanic;

    const MAX_RULES: usize = 16;

    /// One injection rule: at `site`, with probability `prob` per
    /// visit, inject `fault`.
    #[derive(Debug, Clone, Copy)]
    pub struct Rule {
        pub(crate) site: Site,
        pub(crate) fault: Fault,
        /// Per-visit probability in [0, 1].
        pub(crate) prob: f64,
    }

    /// A seeded, bounded fault-injection plan.
    ///
    /// `from_seed` derives a randomized default mix (which sites get
    /// which faults, at what rates, under what budget) from the seed
    /// itself, so one `u64` fully describes a soak iteration. The
    /// builder methods ([`ChaosPlan::bare`], [`ChaosPlan::with_rule`],
    /// [`ChaosPlan::with_budget`]) construct surgical single-fault
    /// plans for deterministic regression tests.
    #[derive(Debug, Clone)]
    pub struct ChaosPlan {
        seed: u64,
        rules: Vec<Rule>,
        /// Total injections allowed (all sites, all threads).
        budget: u32,
        /// Sleep length for `Fault::Delay`.
        delay: std::time::Duration,
    }

    /// SplitMix64 step — the standard seed expander.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(state: &mut u64) -> f64 {
        (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
    }

    impl ChaosPlan {
        /// An empty plan (no rules, zero budget): the regression-test
        /// starting point for [`with_rule`](Self::with_rule).
        pub fn bare(seed: u64) -> Self {
            ChaosPlan {
                seed,
                rules: Vec::new(),
                budget: 0,
                delay: std::time::Duration::from_micros(200),
            }
        }

        /// Derive a full randomized plan from one seed: every fault
        /// class armed at a seed-chosen subset of its legal sites, with
        /// seed-chosen rates and budget.
        pub fn from_seed(seed: u64) -> Self {
            let mut st = seed ^ 0xC0FF_EE00_D15E_A5ED;
            let mut plan = ChaosPlan::bare(seed);
            // (site, fault, max per-visit probability). Panics only at
            // body-covered sites, cancels only through self-gating
            // request edges — see the module docs on legality.
            let menu: &[(Site, Fault, f64)] = &[
                (Site::ChunkGrab, Fault::Panic, 0.02),
                (Site::ChunkGrab, Fault::Delay, 0.05),
                (Site::ChunkGrab, Fault::Cancel, 0.02),
                (Site::TaskExecute, Fault::Panic, 0.05),
                (Site::TaskExecute, Fault::Delay, 0.05),
                (Site::TaskSteal, Fault::Delay, 0.05),
                (Site::BarrierEntry, Fault::Delay, 0.10),
                (Site::DoorbellPrime, Fault::Delay, 0.10),
                (Site::DoorbellRing, Fault::Delay, 0.10),
                (Site::Park, Fault::Delay, 0.10),
                (Site::WorkerSpawn, Fault::SpawnFail, 0.25),
                (Site::CancelCheck, Fault::Cancel, 0.05),
            ];
            for &(site, fault, max_p) in menu {
                // ~60% of the menu armed per seed: plans differ in
                // *shape*, not just rates.
                if unit(&mut st) < 0.6 {
                    plan.rules.push(Rule {
                        site,
                        fault,
                        prob: unit(&mut st) * max_p,
                    });
                }
            }
            plan.budget = 1 + (splitmix(&mut st) % 24) as u32;
            plan.delay = std::time::Duration::from_micros(50 + splitmix(&mut st) % 400);
            plan
        }

        /// The plan's seed (for `ROMP_CHAOS_SEED` replay lines).
        pub fn seed(&self) -> u64 {
            self.seed
        }

        /// Add one injection rule. `prob` is clamped to [0, 1]; rules
        /// beyond an internal cap are ignored (a plan is a test input,
        /// not a data structure to grow).
        pub fn with_rule(mut self, site: Site, fault: Fault, prob: f64) -> Self {
            if self.rules.len() < MAX_RULES {
                self.rules.push(Rule {
                    site,
                    fault,
                    prob: prob.clamp(0.0, 1.0),
                });
            }
            self
        }

        /// Cap total injections across all sites and threads.
        pub fn with_budget(mut self, budget: u32) -> Self {
            self.budget = budget;
            self
        }

        /// Set the sleep length used by `Fault::Delay`.
        pub fn with_delay(mut self, delay: std::time::Duration) -> Self {
            self.delay = delay;
            self
        }
    }

    /// Counters of faults actually injected while a plan was armed.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct InjectedCounts {
        /// Panics thrown.
        pub panics: u64,
        /// Delays slept.
        pub delays: u64,
        /// Cancel requests handed to call sites.
        pub cancels: u64,
        /// Spawn failures handed to call sites.
        pub spawn_fails: u64,
    }

    /// The armed plan plus its runtime state.
    struct PlanState {
        plan: ChaosPlan,
        /// Monotone arming generation: per-thread RNGs reseed when it
        /// changes, so a replayed plan starts from the same stream.
        generation: u64,
        /// Remaining injection budget (goes negative harmlessly under
        /// races; only > 0 admits an injection).
        budget: AtomicI64,
        panics: AtomicU64,
        delays: AtomicU64,
        cancels: AtomicU64,
        spawn_fails: AtomicU64,
    }

    /// Fast-path gate: one relaxed load decides "chaos off".
    static ARMED: AtomicBool = AtomicBool::new(false);
    static GENERATION: AtomicU64 = AtomicU64::new(0);
    static PLAN: RwLock<Option<Arc<PlanState>>> = RwLock::new(None);

    thread_local! {
        /// (generation, rng state) — reseeded per arming so a thread's
        /// decision stream is a function of (plan seed, thread).
        static RNG: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
    }

    /// Disarms the plan it armed when dropped, and exposes the fault
    /// counts accumulated while armed.
    pub struct ChaosGuard {
        state: Arc<PlanState>,
    }

    impl ChaosGuard {
        /// Faults injected so far under this guard's plan.
        pub fn injected(&self) -> InjectedCounts {
            InjectedCounts {
                panics: self.state.panics.load(Ordering::Relaxed),
                delays: self.state.delays.load(Ordering::Relaxed),
                cancels: self.state.cancels.load(Ordering::Relaxed),
                spawn_fails: self.state.spawn_fails.load(Ordering::Relaxed),
            }
        }

        /// The armed plan's seed.
        pub fn seed(&self) -> u64 {
            self.state.plan.seed
        }
    }

    impl Drop for ChaosGuard {
        fn drop(&mut self) {
            let mut slot = PLAN.write();
            // Only disarm our own plan: a later arm() superseded us.
            if let Some(cur) = slot.as_ref() {
                if cur.generation == self.state.generation {
                    *slot = None;
                    ARMED.store(false, Ordering::Release);
                }
            }
        }
    }

    /// Arm `plan` process-wide. The returned guard disarms on drop.
    /// Arming while armed supersedes the previous plan (its guard's
    /// drop then becomes a no-op).
    pub fn arm(plan: ChaosPlan) -> ChaosGuard {
        let generation = GENERATION.fetch_add(1, Ordering::Relaxed) + 1;
        let state = Arc::new(PlanState {
            budget: AtomicI64::new(plan.budget as i64),
            plan,
            generation,
            panics: AtomicU64::new(0),
            delays: AtomicU64::new(0),
            cancels: AtomicU64::new(0),
            spawn_fails: AtomicU64::new(0),
        });
        *PLAN.write() = Some(state.clone());
        ARMED.store(true, Ordering::Release);
        ChaosGuard { state }
    }

    /// The `chaos_point!` target: decide whether to inject at `site`.
    /// Performs `Panic` (by unwinding with [`ChaosPanic`]) and `Delay`
    /// (by sleeping) itself; returns `Cancel`/`SpawnFail` for the call
    /// site to act on. Returns `None` when nothing fires.
    pub fn poke(site: Site) -> Option<Injected> {
        if !ARMED.load(Ordering::Relaxed) {
            return None;
        }
        let state = PLAN.read().clone()?;
        let (mut fault, mut hit_delay) = (None, false);
        RNG.with(|cell| {
            let (gen, mut st) = cell.get();
            if gen != state.generation {
                // Reseed: plan seed × thread identity × generation.
                st = state.plan.seed
                    ^ crate::lock::os_thread_id().rotate_left(17)
                    ^ state.generation.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                if st == 0 {
                    st = 1;
                }
            }
            for rule in &state.plan.rules {
                if rule.site != site {
                    continue;
                }
                if unit(&mut st) >= rule.prob {
                    continue;
                }
                // Admission is budget-gated so a plan terminates.
                if state.budget.fetch_sub(1, Ordering::Relaxed) <= 0 {
                    continue;
                }
                match rule.fault {
                    Fault::Delay => {
                        state.delays.fetch_add(1, Ordering::Relaxed);
                        hit_delay = true;
                    }
                    Fault::Panic => {
                        state.panics.fetch_add(1, Ordering::Relaxed);
                        fault = Some(Fault::Panic);
                    }
                    Fault::Cancel => {
                        state.cancels.fetch_add(1, Ordering::Relaxed);
                        fault = Some(Fault::Cancel);
                    }
                    Fault::SpawnFail => {
                        state.spawn_fails.fetch_add(1, Ordering::Relaxed);
                        fault = Some(Fault::SpawnFail);
                    }
                }
                if fault.is_some() {
                    break;
                }
            }
            cell.set((state.generation, st));
        });
        if hit_delay {
            std::thread::sleep(state.plan.delay);
        }
        match fault {
            Some(Fault::Panic) => std::panic::panic_any(ChaosPanic),
            Some(Fault::Cancel) => Some(Injected::Cancel),
            Some(Fault::SpawnFail) => Some(Injected::SpawnFail),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    #[cfg(not(feature = "chaos"))]
    #[test]
    fn disabled_macro_expands_to_none() {
        // The argument is discarded *unevaluated*: this symbol does not
        // exist, so the test compiling at all proves the expansion
        // carries nothing of the site into release builds.
        fn probe() -> Option<crate::chaos::Injected> {
            chaos_point!(this_symbol_does_not_exist)
        }
        assert!(probe().is_none());
    }

    #[cfg(feature = "chaos")]
    mod armed {
        use crate::chaos::*;
        use std::sync::{Mutex, MutexGuard};

        /// The armed plan is process-wide, so these tests take turns:
        /// run concurrently, one test's `arm` or guard drop replaces the
        /// plan another is poking.
        fn one_at_a_time() -> MutexGuard<'static, ()> {
            static TURN: Mutex<()> = Mutex::new(());
            TURN.lock().unwrap_or_else(|e| e.into_inner())
        }

        #[test]
        fn unarmed_poke_is_silent() {
            let _turn = one_at_a_time();
            assert_eq!(poke(Site::ChunkGrab), None);
        }

        #[test]
        fn probability_one_rule_fires_within_budget() {
            let _turn = one_at_a_time();
            let guard = arm(ChaosPlan::bare(7)
                .with_rule(Site::WorkerSpawn, Fault::SpawnFail, 1.0)
                .with_budget(2));
            assert_eq!(poke(Site::WorkerSpawn), Some(Injected::SpawnFail));
            assert_eq!(poke(Site::ChunkGrab), None, "other sites untouched");
            assert_eq!(poke(Site::WorkerSpawn), Some(Injected::SpawnFail));
            assert_eq!(poke(Site::WorkerSpawn), None, "budget exhausted");
            let c = guard.injected();
            assert_eq!(c.spawn_fails, 2);
            assert_eq!(c.panics + c.delays + c.cancels, 0);
        }

        #[test]
        fn guard_drop_disarms() {
            let _turn = one_at_a_time();
            {
                let _g = arm(ChaosPlan::bare(8).with_rule(Site::Park, Fault::Delay, 1.0));
            }
            assert_eq!(poke(Site::Park), None);
        }

        #[test]
        fn injected_panic_carries_chaos_payload() {
            let _turn = one_at_a_time();
            let _g = arm(ChaosPlan::bare(9)
                .with_rule(Site::TaskExecute, Fault::Panic, 1.0)
                .with_budget(1));
            let err = std::panic::catch_unwind(|| poke(Site::TaskExecute)).unwrap_err();
            assert!(err.is::<ChaosPanic>());
        }

        #[test]
        fn from_seed_is_deterministic() {
            let (a, b) = (ChaosPlan::from_seed(42), ChaosPlan::from_seed(42));
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }
}
