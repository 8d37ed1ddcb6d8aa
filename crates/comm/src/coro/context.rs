//! Stackful coroutines: an `mmap`'d stack behind a guard page, and a
//! stack switch that saves exactly the callee-saved registers.
//!
//! A [`Coroutine`] runs its body on its own stack. [`Coroutine::resume`]
//! switches onto that stack and returns when the body calls [`suspend`]
//! or finishes; the body's panic, if any, is caught at the bottom of the
//! coroutine stack and handed to the resumer as a payload, so unwinding
//! never crosses a switch.
//!
//! Stacks are reserved with `MAP_NORESERVE` and never pre-faulted: a
//! coroutine that touches 40 KiB of its 2 MiB costs 40 KiB of resident
//! memory, exactly like a host thread's stack. The lowest page is
//! `PROT_NONE`, so an overflow faults instead of corrupting a neighbour.

use std::any::Any;
use std::cell::Cell;
use std::ffi::c_void;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr::{self, NonNull};

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
compile_error!("compass-comm coroutines support x86_64 and aarch64 only");
#[cfg(not(any(target_os = "linux", target_os = "macos")))]
compile_error!("compass-comm coroutines support Linux and macOS only");

/// A caught panic, carried from a coroutine to its resumer.
pub type Payload = Box<dyn Any + Send>;

/// Usable bytes per coroutine stack: Rust's default thread stack, so code
/// that used to run on a host thread keeps its budget.
pub(crate) const STACK_SIZE: usize = 2 << 20;

mod sys {
    use std::ffi::{c_int, c_long, c_void};

    pub const PROT_NONE: c_int = 0;
    pub const PROT_READ: c_int = 1;
    pub const PROT_WRITE: c_int = 2;
    pub const MAP_PRIVATE: c_int = 0x0002;
    /// `MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK`: no commit charge, no
    /// pre-faulting.
    #[cfg(target_os = "linux")]
    pub const STACK_FLAGS: c_int = 0x0020 | 0x4000 | 0x2_0000;
    /// `MAP_ANON` (macOS commits lazily anyway).
    #[cfg(target_os = "macos")]
    pub const STACK_FLAGS: c_int = 0x1000;
    #[cfg(target_os = "linux")]
    pub const SC_PAGESIZE: c_int = 30;
    #[cfg(target_os = "macos")]
    pub const SC_PAGESIZE: c_int = 29;
    pub const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
        pub fn sysconf(name: c_int) -> c_long;
    }
}

/// One coroutine stack: a guard page followed by [`STACK_SIZE`] bytes.
struct Stack {
    base: NonNull<c_void>,
    len: usize,
}

impl Stack {
    fn new() -> std::io::Result<Stack> {
        // SAFETY: plain libc calls; every result is checked.
        unsafe {
            let page = usize::try_from(sys::sysconf(sys::SC_PAGESIZE))
                .ok()
                .filter(|&p| p > 0)
                .unwrap_or(4096);
            let len = STACK_SIZE + page;
            let base = sys::mmap(
                ptr::null_mut(),
                len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_PRIVATE | sys::STACK_FLAGS,
                -1,
                0,
            );
            if base == sys::MAP_FAILED {
                return Err(std::io::Error::last_os_error());
            }
            if sys::mprotect(base, page, sys::PROT_NONE) != 0 {
                let err = std::io::Error::last_os_error();
                sys::munmap(base, len);
                return Err(err);
            }
            Ok(Stack {
                base: NonNull::new_unchecked(base),
                len,
            })
        }
    }

    /// One past the highest usable byte (page aligned, so 16-aligned).
    fn top(&self) -> usize {
        self.base.as_ptr() as usize + self.len
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping is ours and nothing runs on it any more.
        unsafe {
            sys::munmap(self.base.as_ptr(), self.len);
        }
    }
}

/// Per-coroutine switch state, at a stable heap address the coroutine's
/// entry frame points at.
struct Control {
    /// The coroutine's stack pointer while it is suspended.
    sp: usize,
    /// The resumer's stack pointer while the coroutine runs.
    caller_sp: usize,
    body: Option<Box<dyn FnOnce()>>,
    /// The body's outcome, set when it returns or unwinds.
    outcome: Option<Result<(), Payload>>,
    finished: bool,
}

thread_local! {
    /// The coroutine running on this thread, if any.
    static RUNNING: Cell<*mut Control> = const { Cell::new(ptr::null_mut()) };
}

/// A stackful coroutine.
pub struct Coroutine {
    ctl: NonNull<Control>,
    /// The mapping the coroutine runs on, unmapped with it.
    _stack: Stack,
}

impl Coroutine {
    /// Prepares `body` on a fresh stack; it first runs at the first
    /// [`Coroutine::resume`].
    pub fn new(body: Box<dyn FnOnce()>) -> std::io::Result<Coroutine> {
        let stack = Stack::new()?;
        let ctl = Box::into_raw(Box::new(Control {
            sp: 0,
            caller_sp: 0,
            body: Some(body),
            outcome: None,
            finished: false,
        }));
        // SAFETY: the initial frame lies inside the fresh stack's usable
        // range, and `ctl` outlives the coroutine (freed in Drop).
        unsafe {
            (*ctl).sp = arch::initial_frame(stack.top(), entry as *const () as usize, ctl as usize);
            Ok(Coroutine {
                ctl: NonNull::new_unchecked(ctl),
                _stack: stack,
            })
        }
    }

    /// True once the body has returned or unwound.
    pub fn is_finished(&self) -> bool {
        // SAFETY: only this thread touches `ctl` while we hold `&self`.
        unsafe { (*self.ctl.as_ptr()).finished }
    }

    /// Runs the coroutine until it suspends (`None`) or finishes
    /// (`Some(outcome)`, where `Err` carries the panic payload).
    ///
    /// # Panics
    /// Panics if the coroutine already finished.
    pub fn resume(&mut self) -> Option<Result<(), Payload>> {
        assert!(!self.is_finished(), "resume of a finished coroutine");
        let ctl = self.ctl.as_ptr();
        let prev = RUNNING.with(|r| r.replace(ctl));
        // SAFETY: `ctl.sp` is a frame built by `initial_frame` or saved by
        // `suspend`; the switch saves our registers into `caller_sp`.
        unsafe { arch::switch_stack(ptr::addr_of_mut!((*ctl).caller_sp), (*ctl).sp) };
        RUNNING.with(|r| r.set(prev));
        // SAFETY: the coroutine is suspended or finished; we own `ctl`.
        unsafe { (*ctl).outcome.take() }
    }
}

impl Drop for Coroutine {
    fn drop(&mut self) {
        // A coroutine dropped while suspended leaks whatever lives on its
        // stack (its frames are never unwound); the stack itself is
        // unmapped. Owners unwind suspended coroutines first (see the
        // executor's cancellation).
        // SAFETY: allocated by `Box::into_raw` in `new`, freed once.
        unsafe { drop(Box::from_raw(self.ctl.as_ptr())) };
    }
}

/// True when called from inside a coroutine.
#[cfg(test)]
pub fn in_coroutine() -> bool {
    RUNNING.with(|r| !r.get().is_null())
}

/// Switches from the running coroutine back to its resumer; returns when
/// the coroutine is resumed again.
///
/// # Panics
/// Panics when called outside a coroutine.
pub fn suspend() {
    let ctl = RUNNING.with(|r| r.get());
    assert!(!ctl.is_null(), "suspend outside a coroutine");
    // SAFETY: `ctl` is the running coroutine's control block; the resumer
    // is parked in `resume` with its registers saved in `caller_sp`.
    unsafe { arch::switch_stack(ptr::addr_of_mut!((*ctl).sp), (*ctl).caller_sp) };
}

/// First frame of every coroutine: runs the body, records its outcome,
/// and switches back for good.
extern "C" fn entry(ctl: usize) -> ! {
    let ctl = ctl as *mut Control;
    // SAFETY: `ctl` is this coroutine's live control block.
    let body = unsafe { (*ctl).body.take() }.expect("coroutine body runs once");
    let outcome = catch_unwind(AssertUnwindSafe(body));
    // SAFETY: as above; after the final switch this stack is never
    // resumed, so nothing on it needs dropping.
    unsafe {
        (*ctl).outcome = Some(outcome);
        (*ctl).finished = true;
        let mut dead = 0usize;
        arch::switch_stack(&mut dead, (*ctl).caller_sp);
    }
    // A panic cannot unwind out of this `extern "C"` frame, so reaching
    // here still aborts the process, now with a message.
    unreachable!("a finished coroutine was resumed")
}

#[cfg(target_arch = "x86_64")]
mod arch {
    use std::arch::naked_asm;

    /// Saves the callee-saved registers and the stack pointer into
    /// `*save`, then restores the frame at `load` and returns into it.
    #[unsafe(naked)]
    pub unsafe extern "C" fn switch_stack(save: *mut usize, load: usize) {
        naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }

    /// Where a fresh coroutine's first `switch_stack` returns to: calls
    /// `entry(arg)` with a correctly aligned stack. The undefined return
    /// address ends stack walks (backtraces) here.
    #[unsafe(naked)]
    unsafe extern "C" fn trampoline() {
        naked_asm!(
            ".cfi_startproc",
            ".cfi_undefined rip",
            "mov rdi, r12",
            "call r13",
            "ud2",
            ".cfi_endproc",
        )
    }

    /// Builds the frame `switch_stack` pops on first resume: r12 = arg,
    /// r13 = entry, return address = trampoline. `top` is 16-aligned; the
    /// trampoline then starts with `rsp == top - 16`, so its call leaves
    /// the ABI's 16-byte alignment intact.
    ///
    /// # Safety
    /// `top - 72 .. top` must be writable stack memory.
    pub unsafe fn initial_frame(top: usize, entry: usize, arg: usize) -> usize {
        let sp = top - 72;
        let frame = sp as *mut usize;
        let regs = [
            0,
            0,
            entry,
            arg,
            0,
            0,
            trampoline as *const () as usize,
            0,
            0,
        ];
        for (i, v) in regs.into_iter().enumerate() {
            frame.add(i).write(v);
        }
        sp
    }
}

#[cfg(target_arch = "aarch64")]
mod arch {
    use std::arch::naked_asm;

    /// Saves x19-x30 and d8-d15 plus the stack pointer into `*save`, then
    /// restores the frame at `load` and returns into it.
    #[unsafe(naked)]
    pub unsafe extern "C" fn switch_stack(save: *mut usize, load: usize) {
        naked_asm!(
            "sub sp, sp, #0xa0",
            "stp x19, x20, [sp, #0x00]",
            "stp x21, x22, [sp, #0x10]",
            "stp x23, x24, [sp, #0x20]",
            "stp x25, x26, [sp, #0x30]",
            "stp x27, x28, [sp, #0x40]",
            "stp x29, x30, [sp, #0x50]",
            "stp d8, d9, [sp, #0x60]",
            "stp d10, d11, [sp, #0x70]",
            "stp d12, d13, [sp, #0x80]",
            "stp d14, d15, [sp, #0x90]",
            "mov x2, sp",
            "str x2, [x0]",
            "mov sp, x1",
            "ldp x19, x20, [sp, #0x00]",
            "ldp x21, x22, [sp, #0x10]",
            "ldp x23, x24, [sp, #0x20]",
            "ldp x25, x26, [sp, #0x30]",
            "ldp x27, x28, [sp, #0x40]",
            "ldp x29, x30, [sp, #0x50]",
            "ldp d8, d9, [sp, #0x60]",
            "ldp d10, d11, [sp, #0x70]",
            "ldp d12, d13, [sp, #0x80]",
            "ldp d14, d15, [sp, #0x90]",
            "add sp, sp, #0xa0",
            "ret",
        )
    }

    /// Where a fresh coroutine's first `switch_stack` returns to: calls
    /// `entry(arg)`. The undefined return address ends stack walks here.
    #[unsafe(naked)]
    unsafe extern "C" fn trampoline() {
        naked_asm!(
            ".cfi_startproc",
            ".cfi_undefined x30",
            "mov x0, x19",
            "blr x20",
            "brk #1",
            ".cfi_endproc",
        )
    }

    /// Builds the frame `switch_stack` pops on first resume: x19 = arg,
    /// x20 = entry, x29 = 0, x30 = trampoline; `sp` stays 16-aligned.
    ///
    /// # Safety
    /// `top - 160 .. top` must be writable stack memory.
    pub unsafe fn initial_frame(top: usize, entry: usize, arg: usize) -> usize {
        let sp = top - 0xa0;
        let frame = sp as *mut usize;
        for i in 0..20 {
            frame.add(i).write(0);
        }
        frame.write(arg);
        frame.add(1).write(entry);
        frame.add(11).write(trampoline as *const () as usize);
        sp
    }
}
