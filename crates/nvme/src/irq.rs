//! Per-NCQ interrupt vectors.
//!
//! Each completion queue registers one IRQ vector on one CPU core (§2.1 of
//! the paper). The vector is a small state machine that guarantees at most
//! one interrupt is in flight per CQ: the device raises when the first CQE
//! lands while the vector is idle, and re-raises after the host signals ISR
//! completion if more CQEs arrived in the meantime.

use crate::spec::CqId;

/// State of an interrupt vector.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IrqState {
    /// No interrupt pending or being serviced.
    Idle,
    /// Interrupt asserted, host has not started the ISR yet (or is running
    /// it); further CQE posts do not re-assert.
    Raised,
}

/// An interrupt vector bound to a CPU core.
#[derive(Clone, Copy, Debug)]
pub struct IrqVector {
    /// The CQ this vector serves.
    pub cq: CqId,
    /// The core whose ISR runs for this vector.
    pub core: u16,
    state: IrqState,
    raised_total: u64,
}

impl IrqVector {
    /// Creates an idle vector for `cq` bound to `core`.
    pub fn new(cq: CqId, core: u16) -> Self {
        IrqVector {
            cq,
            core,
            state: IrqState::Idle,
            raised_total: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> IrqState {
        self.state
    }

    /// True while an interrupt is asserted and not yet acknowledged.
    ///
    /// Raise/acknowledge state is strictly per vector: each CQ's ISR
    /// completes its own vector, so watchdog scans observe per-CQ truth.
    pub fn is_raised(&self) -> bool {
        self.state == IrqState::Raised
    }

    /// Total interrupts raised.
    pub fn raised_total(&self) -> u64 {
        self.raised_total
    }

    /// Attempts to assert the interrupt; returns true if a new interrupt
    /// must be delivered to the host (i.e. the vector was idle).
    pub fn try_raise(&mut self) -> bool {
        match self.state {
            IrqState::Idle => {
                self.state = IrqState::Raised;
                self.raised_total += 1;
                true
            }
            IrqState::Raised => false,
        }
    }

    /// Host signals the ISR finished. `more_pending` is whether CQEs remain
    /// unprocessed; returns true when the vector must immediately re-raise.
    ///
    /// Tolerates completion of an *idle* vector: a polled ISR (the
    /// fault-recovery watchdog) can race a real delivery, in which case the
    /// second ISR finds nothing to acknowledge — the hardware equivalent of
    /// returning `IRQ_NONE` from a shared handler.
    pub fn complete(&mut self, more_pending: bool) -> bool {
        if self.state == IrqState::Idle {
            return false;
        }
        if more_pending {
            self.raised_total += 1;
            true // Stay raised; a fresh delivery is needed.
        } else {
            self.state = IrqState::Idle;
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_once_while_pending() {
        let mut v = IrqVector::new(CqId(0), 3);
        assert!(v.try_raise());
        assert!(!v.try_raise());
        assert!(!v.try_raise());
        assert_eq!(v.raised_total(), 1);
        assert_eq!(v.state(), IrqState::Raised);
    }

    #[test]
    fn complete_idles_when_drained() {
        let mut v = IrqVector::new(CqId(0), 0);
        v.try_raise();
        assert!(!v.complete(false));
        assert_eq!(v.state(), IrqState::Idle);
        assert!(v.try_raise(), "idle vector re-raises");
    }

    #[test]
    fn complete_reraises_with_backlog() {
        let mut v = IrqVector::new(CqId(0), 0);
        v.try_raise();
        assert!(v.complete(true));
        assert_eq!(v.state(), IrqState::Raised);
        assert_eq!(v.raised_total(), 2);
        // Still won't double-raise while raised.
        assert!(!v.try_raise());
    }

    #[test]
    fn spurious_complete_is_harmless() {
        let mut v = IrqVector::new(CqId(0), 0);
        assert!(!v.complete(false), "idle completion must not re-raise");
        assert!(!v.complete(true), "idle completion ignores backlog hint");
        assert_eq!(v.state(), IrqState::Idle);
        assert_eq!(v.raised_total(), 0);
        assert!(v.try_raise(), "vector still usable afterwards");
    }
}
