//! Work classes: the priority levels of core work.

/// Scheduling class of a work item, highest priority first.
///
/// The ordering mirrors the kernel: hardware interrupt handlers run before
/// application tasks.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum WorkClass {
    /// Hardware interrupt service routine.
    HardIrq,
    /// Application / syscall work.
    Task,
}

impl WorkClass {
    /// All classes, highest priority first.
    pub const ALL: [WorkClass; 2] = [WorkClass::HardIrq, WorkClass::Task];

    /// Dense index for per-class arrays.
    pub fn index(self) -> usize {
        match self {
            WorkClass::HardIrq => 0,
            WorkClass::Task => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_priority_order() {
        assert!(WorkClass::HardIrq < WorkClass::Task);
    }

    #[test]
    fn indices_are_dense() {
        for (i, c) in WorkClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
