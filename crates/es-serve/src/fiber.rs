//! Stackful fibers: a pool slot's worker runs on a stack of its own,
//! inside the thread that drives the [`crate::server::Server`].
//!
//! The tree walker keeps a command's state on the Rust stack, so a
//! command stopped at a slice boundary needs a stack that outlives the
//! stop. A [`Fiber`] is such a stack plus the few registers a call
//! must preserve: [`Fiber::resume`] switches onto it and
//! [`Fiber::suspend`], called on it, switches back. A switch is a
//! dozen instructions in user space, where handing a baton to a
//! worker thread is a mutex, a condvar and two context switches.
//!
//! Only x86_64 Linux is implemented: [`switch`] is the one function
//! to port (with the `mmap` flags in [`Stack::new`]).

use std::any::Any;
use std::cell::Cell;
use std::ffi::{c_int, c_void};
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "es-serve fibers exist for x86_64 Linux only: port `fiber::switch` \
     (and the mmap flags in `Stack::new`) to this target"
);

const PAGE: usize = 4096;
const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
const MAP_STACK: c_int = 0x20000;

unsafe extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

/// A fiber's stack: anonymous memory mapped on demand, with a
/// `PROT_NONE` guard page below it, so running off the end faults
/// (`SIGSEGV`) instead of writing over whatever lies below.
pub(crate) struct Stack {
    /// Start of the mapping: the guard page.
    base: *mut u8,
    /// Bytes mapped, guard page included.
    len: usize,
}

impl Stack {
    /// Maps a stack of at least `size` usable bytes.
    pub(crate) fn new(size: usize) -> io::Result<Stack> {
        let len = size.div_ceil(PAGE) * PAGE + PAGE;
        // SAFETY: an anonymous private mapping at an address the
        // kernel chooses aliases no memory this program already uses.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        if base as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        let stack = Stack {
            base: base.cast(),
            len,
        };
        // SAFETY: the first page lies inside the mapping just made,
        // which nothing else refers to yet.
        if unsafe { mprotect(base, PAGE, PROT_NONE) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(stack)
    }

    /// One past the highest usable byte; page-aligned.
    fn top(&self) -> *mut u8 {
        self.base.wrapping_add(self.len)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base..base + len` is the mapping `new` made, and the
        // owner drops a stack only once no frame lives on it (see
        // `Fiber`'s `Drop`). A failed unmap only leaks the range.
        unsafe { munmap(self.base.cast(), self.len) };
    }
}

/// What a fiber and its resumer share. Boxed, so its address stays put
/// while the two stacks point at it.
struct Context {
    /// The fiber's saved stack pointer while it is not running.
    sp: Cell<*mut u8>,
    /// The resumer's saved stack pointer while the fiber runs.
    caller: Cell<*mut u8>,
    /// Taken when the fiber first runs.
    body: Cell<Option<Box<dyn FnOnce()>>>,
    running: Cell<bool>,
    finished: Cell<bool>,
    /// A panic the body ended with, raised again by `resume`.
    panic: Cell<Option<Box<dyn Any + Send>>>,
}

thread_local! {
    /// The innermost fiber running on this thread; null on the thread's
    /// own stack.
    static CURRENT: Cell<*const Context> = const { Cell::new(ptr::null()) };
}

/// A stackful coroutine. It runs only while some caller is inside
/// [`Fiber::resume`], and never moves between threads (`!Send`).
pub(crate) struct Fiber {
    ctx: Box<Context>,
    /// `None` once the stack is leaked.
    stack: Option<Stack>,
}

/// Bytes of the frame [`Fiber::new`] lays out for the first switch:
/// the control words, six registers, [`fiber_main`]'s address and the
/// null return address above it.
const FIRST_FRAME: usize = 9 * 8;

/// MXCSR and the x87 control word at their power-on defaults (all
/// exceptions masked, round to nearest), packed as [`switch`] stores
/// them.
const DEFAULT_CONTROL: u64 = 0x1f80 | (0x037f << 32);

impl Fiber {
    /// A fiber that will run `body` on `stack`, from its first
    /// [`Fiber::resume`] until `body` returns. A panic in `body` ends
    /// the fiber and is raised again from that `resume`.
    pub(crate) fn new(stack: Stack, body: impl FnOnce() + 'static) -> Fiber {
        let sp = stack.top().wrapping_sub(FIRST_FRAME);
        // The frame `switch` pops on the first resume: its saved
        // control words and six zeroed registers, then `fiber_main` as
        // the address it returns to. The null word above is
        // `fiber_main`'s own return address: unwinders stop there.
        let frame: [u64; 9] = [
            DEFAULT_CONTROL,
            0,
            0,
            0,
            0,
            0,
            0,
            fiber_main as *const () as u64,
            0,
        ];
        // SAFETY: `sp` is 8-aligned (the top is page-aligned) and the
        // 72 bytes above it lie in the stack's writable pages, which
        // nothing else uses yet.
        unsafe { ptr::write(sp.cast::<[u64; 9]>(), frame) };
        Fiber {
            ctx: Box::new(Context {
                sp: Cell::new(sp),
                caller: Cell::new(ptr::null_mut()),
                body: Cell::new(Some(Box::new(body))),
                running: Cell::new(false),
                finished: Cell::new(false),
                panic: Cell::new(None),
            }),
            stack: Some(stack),
        }
    }

    /// Runs the fiber until it calls [`Fiber::suspend`] or its body
    /// returns. Panics if the fiber has finished or is running.
    pub(crate) fn resume(&self) {
        let ctx = &*self.ctx;
        assert!(!ctx.finished.get(), "resumed a finished fiber");
        assert!(!ctx.running.get(), "resumed a running fiber");
        ctx.running.set(true);
        let outer = CURRENT.replace(ctx);
        // SAFETY: `ctx.sp` is the fiber's stack pointer: the frame
        // `new` laid out, or the one its last `suspend` saved. Neither
        // has been switched to since (the fiber is not running), and
        // the stack stays mapped while `self` lives. The fiber switches
        // back through `ctx.caller`, which this call fills in.
        unsafe {
            switch(
                ctx.caller.as_ptr(),
                ctx.sp.get(),
                ctx as *const Context as usize,
            )
        };
        CURRENT.set(outer);
        ctx.running.set(false);
        if let Some(payload) = ctx.panic.take() {
            panic::resume_unwind(payload);
        }
    }

    /// Called on a fiber: switches back to the caller of the
    /// [`Fiber::resume`] that is running it, and returns when the
    /// fiber is next resumed. Panics on a thread's own stack.
    pub(crate) fn suspend() {
        let ctx = CURRENT.get();
        assert!(!ctx.is_null(), "suspend called outside a fiber");
        // SAFETY: `CURRENT` is non-null only inside `resume`, and then
        // points at the running fiber's `Context`, which that `resume`
        // borrows. Its `caller` holds the stack pointer `resume` saved
        // in the `switch` it is still waiting in.
        unsafe {
            let ctx = &*ctx;
            switch(ctx.sp.as_ptr(), ctx.caller.get(), 0);
        }
    }

    /// Whether the body has returned (or panicked).
    pub(crate) fn finished(&self) -> bool {
        self.ctx.finished.get()
    }
}

/// Whether this thread is running a fiber: the quiet panic hook keys
/// on it, as slot workers are this crate's fibers.
pub(crate) fn in_fiber() -> bool {
    !CURRENT.get().is_null()
}

impl Drop for Fiber {
    fn drop(&mut self) {
        if self.ctx.running.get() {
            // Dropped from its own stack: `resume` still borrows it.
            std::process::abort();
        }
        // A fiber that never ran has no frames; one that finished has
        // left its stack. Any other still has frames on its stack that
        // can never run again, so the stack is leaked, not unmapped.
        let frameless = self.ctx.finished.get() || self.ctx.body.take().is_some();
        if !frameless {
            std::mem::forget(self.stack.take());
        }
    }
}

/// The first frame on every fiber stack. The first `switch` onto a
/// fiber returns here, with the fiber's `Context` as the argument.
extern "C" fn fiber_main(ctx: *const Context) -> ! {
    // SAFETY: `resume` passed its own `Context`, which it borrows until
    // this fiber switches back for the last time, below.
    let ctx = unsafe { &*ctx };
    if let Some(body) = ctx.body.take() {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(body)) {
            ctx.panic.set(Some(payload));
        }
    }
    ctx.finished.set(true);
    // SAFETY: as in `Fiber::suspend`: `ctx.caller` holds the stack
    // pointer of the `resume` running this fiber. Nothing on this
    // stack needs dropping, and a finished fiber is never resumed, so
    // this switch never returns.
    unsafe { switch(ctx.sp.as_ptr(), ctx.caller.get(), 0) };
    std::process::abort()
}

/// Saves the callee-saved state (rbx, rbp, r12–r15, MXCSR, the x87
/// control word) on the current stack, stores the stack pointer in
/// `*save`, loads `to` as the stack pointer and restores the state
/// saved there, then returns into the other stack. A fresh fiber's
/// stack "returns" into [`fiber_main`], with `arg` in its first
/// argument register.
///
/// # Safety
///
/// `save` must be valid for a write, and `to` must be a stack pointer
/// that `switch` saved (or [`Fiber::new`] laid out) on a stack that is
/// still mapped and has not been switched to since.
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8, arg: usize) {
    std::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "mov rdi, rdx",
        "ret",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    fn stack() -> Stack {
        Stack::new(256 << 10).expect("map a test stack")
    }

    /// A body runs in steps between suspends, on its own stack, and
    /// keeps its locals across them.
    #[test]
    fn resume_and_suspend_alternate() {
        let log = Rc::new(Cell::new(0u32));
        let l = Rc::clone(&log);
        let fiber = Fiber::new(stack(), move || {
            let mut local = 10;
            for _ in 0..3 {
                local += 1;
                l.set(local);
                Fiber::suspend();
            }
        });
        assert!(!in_fiber());
        for want in 11..=13 {
            fiber.resume();
            assert_eq!(log.get(), want);
            assert!(!fiber.finished());
        }
        fiber.resume();
        assert!(fiber.finished());
        assert!(!in_fiber());
    }

    /// Floating-point control state is per fiber: a rounding mode set
    /// on the fiber does not leak into the resumer.
    #[test]
    fn mxcsr_is_restored_across_switches() {
        fn mxcsr() -> u32 {
            let mut v = 0u32;
            // SAFETY: `stmxcsr` stores 4 bytes into `v`.
            unsafe { std::arch::asm!("stmxcsr [{}]", in(reg) &mut v) };
            v
        }
        let before = mxcsr();
        let fiber = Fiber::new(stack(), || {
            let v = mxcsr() | 0x6000; // round toward zero
                                      // SAFETY: `ldmxcsr` reads 4 bytes from `v`; every
                                      // exception stays masked.
            unsafe { std::arch::asm!("ldmxcsr [{}]", in(reg) &v) };
            Fiber::suspend();
            assert_eq!(mxcsr() & 0x6000, 0x6000, "the fiber keeps its own mode");
        });
        fiber.resume();
        assert_eq!(mxcsr(), before);
        fiber.resume();
        assert_eq!(mxcsr(), before);
    }

    /// Dropping a fiber suspended mid-body leaks its stack instead of
    /// unmapping it: a local on that stack stays readable.
    #[test]
    fn dropping_a_suspended_fiber_leaks_its_stack() {
        let addr = Rc::new(Cell::new(0usize));
        let a = Rc::clone(&addr);
        let fiber = Fiber::new(stack(), move || {
            let local = std::hint::black_box(0x5eed_u64);
            a.set(&local as *const u64 as usize);
            Fiber::suspend();
            unreachable!("a dropped fiber never runs again");
        });
        fiber.resume();
        drop(fiber);
        // SAFETY: `addr` points at `local`, on the dropped fiber's
        // stack, which `Drop` leaked while the body was suspended.
        let kept = unsafe { ptr::read_volatile(addr.get() as *const u64) };
        assert_eq!(kept, 0x5eed);
    }

    /// A panic in the body ends the fiber and comes out of `resume`.
    #[test]
    fn body_panic_is_raised_by_resume() {
        let fiber = Fiber::new(stack(), || panic::panic_any("boom"));
        let caught = panic::catch_unwind(AssertUnwindSafe(|| fiber.resume()));
        let payload = caught.expect_err("the panic came out of resume");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        assert!(fiber.finished());
    }

    /// A backtrace taken on a fiber ends at the fiber's base frame (its
    /// null return address) instead of walking off the stack.
    #[test]
    fn backtrace_on_a_fiber_returns() {
        let frames = Rc::new(Cell::new(0usize));
        let f = Rc::clone(&frames);
        let fiber = Fiber::new(stack(), move || {
            let bt = std::backtrace::Backtrace::force_capture();
            f.set(bt.to_string().lines().count());
        });
        fiber.resume();
        assert!(fiber.finished());
        assert!(frames.get() > 0, "the capture saw no frames");
    }

    /// Runs the child half of [`overflow_hits_the_guard_page`] when the
    /// test binary is re-run with this variable set.
    const OVERFLOW_CHILD: &str = "ES_FIBER_OVERFLOW_CHILD";

    fn recurse(depth: u64) -> u64 {
        let frame = std::hint::black_box([depth; 32]);
        if depth == u64::MAX {
            return 0;
        }
        recurse(depth + 1).wrapping_add(frame[7])
    }

    /// Recursion without bound on a fiber stops at the guard page: the
    /// process dies by `SIGSEGV`, having written nothing below its
    /// stack. The test re-runs itself in a child process to watch that.
    #[test]
    fn overflow_hits_the_guard_page() {
        if std::env::var_os(OVERFLOW_CHILD).is_some() {
            let fiber = Fiber::new(stack(), || {
                std::hint::black_box(recurse(0));
            });
            fiber.resume();
            unreachable!("the recursion returned");
        }
        use std::os::unix::process::ExitStatusExt;
        let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args(["--exact", "fiber::tests::overflow_hits_the_guard_page"])
            .arg("--nocapture")
            .env(OVERFLOW_CHILD, "1")
            .output()
            .expect("run the child");
        const SIGSEGV: i32 = 11;
        assert_eq!(
            out.status.signal(),
            Some(SIGSEGV),
            "child ended with {:?}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
