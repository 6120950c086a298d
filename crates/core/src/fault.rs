//! Deterministic fault injection for the simulated hardware.
//!
//! NACHOS's safety argument is a protocol argument: the MAY gates,
//! ORDER/FORWARD tokens and the one-per-cycle comparator check must never
//! admit an unsafe reordering and never deadlock (paper §IV–V). A claim
//! like that deserves chaos testing: this module lets a run *perturb* the
//! simulated hardware at precisely-targeted points — drop or duplicate a
//! completion token, force a comparator verdict, delay a memory response,
//! flip bits in a forwarded value, or panic outright — so the harness can
//! prove that every unsafe perturbation is caught (by the differential
//! check, the token accounting, or the engine watchdog) and every benign
//! one leaves architectural results untouched.
//!
//! Injection is **deterministic**: each fault class has an opportunity
//! counter inside the engine (token deliveries, `==?` checks, memory
//! responses, forward consumptions, handled events), and a
//! [`FaultSpec`] fires at exactly the `nth` opportunity of its class in a
//! given run. No randomness, no wall-clock — the same [`FaultPlan`]
//! produces the same injections, the same report, on any worker-thread
//! count.

use crate::config::Backend;
use std::fmt;

/// What to perturb.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Swallow an ordering-token delivery (ORDER, serialized MAY, or
    /// local scratchpad token). The receiver waits forever — the engine
    /// watchdog must convert the hang into a diagnosed deadlock.
    DropToken,
    /// Deliver an ordering token twice. The extra decrement underflows
    /// the receiver's token count — the engine's token accounting must
    /// report a structured protocol violation.
    DuplicateToken,
    /// Force a `==?` comparator check to report *no conflict*. Unsafe on
    /// a truly-conflicting pair: the younger op proceeds early and the
    /// differential check must flag the reordering.
    ForceNoConflict,
    /// Force a `==?` comparator check to report *conflict*. Benign: the
    /// younger op serializes behind the older one — pure timing.
    ForceConflict,
    /// Delay one memory response by the given number of cycles. Benign:
    /// pure timing.
    DelayMem {
        /// Extra response latency in cycles.
        cycles: u64,
    },
    /// XOR the value consumed over a FORWARD edge with the given mask.
    /// Unsafe (for a nonzero mask): the load observes a corrupted value
    /// and the differential check must flag it.
    CorruptForward {
        /// Bit mask XORed into the forwarded value.
        mask: u64,
    },
    /// Panic while handling an engine event. Exercises the sweep
    /// harness's per-run panic isolation (`catch_unwind` at the worker
    /// boundary): one poisoned run must not take down the other 80.
    PanicOnEvent,
}

impl FaultKind {
    /// The opportunity class whose counter arms this fault.
    #[must_use]
    pub fn class(self) -> FaultClass {
        match self {
            FaultKind::DropToken | FaultKind::DuplicateToken => FaultClass::TokenDelivery,
            FaultKind::ForceNoConflict | FaultKind::ForceConflict => FaultClass::MayCheck,
            FaultKind::DelayMem { .. } => FaultClass::MemResponse,
            FaultKind::CorruptForward { .. } => FaultClass::ForwardConsume,
            FaultKind::PanicOnEvent => FaultClass::Event,
        }
    }

    /// `true` for perturbations that may change architectural results or
    /// liveness; `false` for pure-timing perturbations that the harness
    /// must prove result-neutral.
    #[must_use]
    pub fn is_unsafe(self) -> bool {
        match self {
            FaultKind::DropToken
            | FaultKind::DuplicateToken
            | FaultKind::ForceNoConflict
            | FaultKind::PanicOnEvent => true,
            FaultKind::CorruptForward { mask } => mask != 0,
            FaultKind::ForceConflict | FaultKind::DelayMem { .. } => false,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::DropToken => f.write_str("drop-token"),
            FaultKind::DuplicateToken => f.write_str("duplicate-token"),
            FaultKind::ForceNoConflict => f.write_str("force-no-conflict"),
            FaultKind::ForceConflict => f.write_str("force-conflict"),
            FaultKind::DelayMem { cycles } => write!(f, "delay-mem({cycles})"),
            FaultKind::CorruptForward { mask } => write!(f, "corrupt-forward({mask:#x})"),
            FaultKind::PanicOnEvent => f.write_str("panic-on-event"),
        }
    }
}

/// The injection-point classes the engine counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// An ordering token about to be delivered.
    TokenDelivery,
    /// A `==?` comparator check about to produce its verdict.
    MayCheck,
    /// A cache/memory access about to schedule its response.
    MemResponse,
    /// A FORWARD-edge value about to be consumed by a load.
    ForwardConsume,
    /// An engine event about to be handled.
    Event,
}

impl FaultClass {
    const COUNT: usize = 5;

    fn index(self) -> usize {
        match self {
            FaultClass::TokenDelivery => 0,
            FaultClass::MayCheck => 1,
            FaultClass::MemResponse => 2,
            FaultClass::ForwardConsume => 3,
            FaultClass::Event => 4,
        }
    }
}

/// One targeted perturbation: fire `kind` at the `nth` opportunity of its
/// class, optionally only under one backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// What to perturb.
    pub kind: FaultKind,
    /// Zero-based opportunity index within the fault's class at which to
    /// fire (counted per run, deterministically).
    pub nth: u64,
    /// Restrict the fault to one backend (`None` = any backend).
    pub backend: Option<Backend>,
}

impl FaultSpec {
    /// A spec firing at the `nth` opportunity under any backend.
    #[must_use]
    pub fn new(kind: FaultKind, nth: u64) -> Self {
        Self {
            kind,
            nth,
            backend: None,
        }
    }

    /// Restricts the spec to one backend, builder-style.
    #[must_use]
    pub fn on_backend(mut self, backend: Backend) -> Self {
        self.backend = Some(backend);
        self
    }
}

/// The set of perturbations one run injects. An empty plan (the default)
/// is a zero-cost no-op for the engine's hot paths.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The targeted perturbations.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// The empty plan: no injection.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan with a single fault.
    #[must_use]
    pub fn single(spec: FaultSpec) -> Self {
        Self { faults: vec![spec] }
    }

    /// `true` when the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// `true` when any spec applies under `backend`.
    #[must_use]
    pub fn applies_to(&self, backend: Backend) -> bool {
        self.faults
            .iter()
            .any(|s| s.backend.is_none_or(|b| b == backend))
    }
}

/// Per-run injection state: one opportunity counter per [`FaultClass`]
/// and the log of faults that actually fired.
#[derive(Clone, Debug, Default)]
pub(crate) struct FaultState {
    counters: [u64; FaultClass::COUNT],
    /// Deterministic descriptions of every fired fault, in firing order.
    pub(crate) fired: Vec<String>,
}

impl FaultState {
    /// Counts one opportunity of `class` and returns the armed fault, if
    /// any spec of the plan targets exactly this opportunity under this
    /// backend. At most one spec fires per opportunity (first match).
    pub(crate) fn poll(
        &mut self,
        plan: &FaultPlan,
        backend: Backend,
        class: FaultClass,
    ) -> Option<FaultKind> {
        // Without a plan nothing can fire, and the counters are read only
        // to match specs: skip the bookkeeping on the engine's per-event
        // path.
        if plan.is_empty() {
            return None;
        }
        let n = self.counters[class.index()];
        self.counters[class.index()] += 1;
        plan.faults
            .iter()
            .find(|s| {
                s.kind.class() == class && s.nth == n && s.backend.is_none_or(|b| b == backend)
            })
            .map(|s| s.kind)
    }

    /// Records that `kind` fired, with deterministic context.
    pub(crate) fn record(&mut self, kind: FaultKind, cycle: u64, context: &str) {
        self.fired
            .push(format!("{kind} at cycle {cycle} ({context})"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_fires_at_exactly_the_nth_opportunity() {
        let plan = FaultPlan::single(FaultSpec::new(FaultKind::DropToken, 2));
        let mut st = FaultState::default();
        let b = Backend::NachosSw;
        assert_eq!(st.poll(&plan, b, FaultClass::TokenDelivery), None);
        assert_eq!(st.poll(&plan, b, FaultClass::TokenDelivery), None);
        assert_eq!(
            st.poll(&plan, b, FaultClass::TokenDelivery),
            Some(FaultKind::DropToken)
        );
        assert_eq!(st.poll(&plan, b, FaultClass::TokenDelivery), None);
    }

    #[test]
    fn backend_filter_gates_injection() {
        let plan = FaultPlan::single(
            FaultSpec::new(FaultKind::ForceNoConflict, 0).on_backend(Backend::Nachos),
        );
        let mut st = FaultState::default();
        assert_eq!(
            st.poll(&plan, Backend::NachosSw, FaultClass::MayCheck),
            None
        );
        let mut st = FaultState::default();
        assert_eq!(
            st.poll(&plan, Backend::Nachos, FaultClass::MayCheck),
            Some(FaultKind::ForceNoConflict)
        );
        assert!(plan.applies_to(Backend::Nachos));
        assert!(!plan.applies_to(Backend::OptLsq));
    }

    #[test]
    fn classes_do_not_cross_count() {
        let plan = FaultPlan::single(FaultSpec::new(FaultKind::DelayMem { cycles: 9 }, 0));
        let mut st = FaultState::default();
        let b = Backend::OptLsq;
        // Token opportunities do not consume the mem-response counter.
        assert_eq!(st.poll(&plan, b, FaultClass::TokenDelivery), None);
        assert_eq!(st.poll(&plan, b, FaultClass::TokenDelivery), None);
        assert_eq!(
            st.poll(&plan, b, FaultClass::MemResponse),
            Some(FaultKind::DelayMem { cycles: 9 })
        );
    }

    #[test]
    fn safety_taxonomy() {
        assert!(FaultKind::DropToken.is_unsafe());
        assert!(FaultKind::DuplicateToken.is_unsafe());
        assert!(FaultKind::ForceNoConflict.is_unsafe());
        assert!(FaultKind::PanicOnEvent.is_unsafe());
        assert!(FaultKind::CorruptForward { mask: 1 }.is_unsafe());
        assert!(!FaultKind::CorruptForward { mask: 0 }.is_unsafe());
        assert!(!FaultKind::ForceConflict.is_unsafe());
        assert!(!FaultKind::DelayMem { cycles: 50 }.is_unsafe());
    }

    #[test]
    fn record_is_deterministic_text() {
        let mut st = FaultState::default();
        st.record(FaultKind::CorruptForward { mask: 0xff }, 42, "node 3");
        assert_eq!(st.fired, ["corrupt-forward(0xff) at cycle 42 (node 3)"]);
    }
}
