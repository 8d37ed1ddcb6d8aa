//! Identifier newtypes shared across the whole simulator.
//!
//! These are deliberately small (`u32`/`u16`) so that hot event structures
//! stay compact (see the type-size guidance in the Rust Performance Book);
//! the backend processes one event per simulated memory reference, so every
//! byte in an event matters.

use std::fmt;

/// Simulated time, in cycles of the target processor clock.
pub type Cycles = u64;

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident($inner:ty)) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub $inner);

        impl $name {
            /// Returns the raw index for container addressing.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<$inner> for $name {
            #[inline]
            fn from(v: $inner) -> Self {
                Self(v)
            }
        }

        impl From<usize> for $name {
            #[inline]
            fn from(v: usize) -> Self {
                Self(v as $inner)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

id_newtype! {
    /// A simulated application process (or OS-server kernel daemon).
    ///
    /// In the original COMPASS each simulated process is a real AIX process;
    /// here each is a coroutine. Process ids are dense and assigned in
    /// creation order, which makes them usable as deterministic tie-breakers
    /// in the global event scheduler.
    ProcessId(u32)
}

id_newtype! {
    /// A virtual (simulated) processor in the target machine.
    CpuId(u16)
}

id_newtype! {
    /// A node of the simulated CC-NUMA/COMA machine (CPUs + local memory +
    /// directory + network interface).
    NodeId(u16)
}

id_newtype! {
    /// A simulated hard-disk drive.
    DiskId(u16)
}

id_newtype! {
    /// A simulated Ethernet network interface.
    NicId(u16)
}

id_newtype! {
    /// A simulated TCP connection handled by the in-kernel network stack.
    ConnId(u32)
}

id_newtype! {
    /// A System-V-style shared memory segment id (`shmget` result).
    SegId(u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip_through_usize() {
        let p = ProcessId::from(7usize);
        assert_eq!(p.index(), 7);
        assert_eq!(p, ProcessId(7));
        let c = CpuId::from(3usize);
        assert_eq!(c.index(), 3);
    }

    #[test]
    fn ids_order_by_raw_value() {
        assert!(ProcessId(1) < ProcessId(2));
        assert!(NodeId(0) < NodeId(5));
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(ProcessId(4).to_string(), "ProcessId(4)");
        assert_eq!(DiskId(0).to_string(), "DiskId(0)");
    }
}
