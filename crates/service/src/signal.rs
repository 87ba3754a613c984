//! SIGTERM/SIGINT handling without a libc crate dependency.
//!
//! The daemon must exit cleanly on SIGTERM (the supervisor's stop
//! signal) and SIGINT (a human's Ctrl-C). The container has no `libc`
//! crate, so this module carries the one `extern "C"` binding the
//! crate needs — `signal(2)`, which every Rust binary already links
//! through the platform C runtime. The handler does the only thing an
//! async-signal-safe handler may: store to an atomic. Everything else
//! (draining queues, joining threads, unlinking sockets) happens on
//! normal threads once `Daemon::run_until` sees the flag.

use std::sync::atomic::{AtomicBool, Ordering};

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

mod sys {
    //! The lone FFI binding, quarantined: `signal(2)` from the C
    //! runtime the binary links anyway.

    pub type Handler = extern "C" fn(i32);

    extern "C" {
        pub fn signal(signum: i32, handler: Handler) -> usize;
    }
}

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs SIGTERM/SIGINT handlers that flip a process-wide flag,
/// and returns that flag. Idempotent; safe to call from any thread
/// before the daemon starts serving.
pub fn install_shutdown_handler() -> &'static AtomicBool {
    unsafe {
        sys::signal(SIGTERM, on_signal);
        sys::signal(SIGINT, on_signal);
    }
    &SHUTDOWN
}

/// The shutdown flag without installing handlers (tests flip it
/// directly).
pub fn shutdown_flag() -> &'static AtomicBool {
    &SHUTDOWN
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_starts_clear_and_handler_sets_it() {
        let flag = install_shutdown_handler();
        // Invoke the handler directly rather than raising a real
        // signal (a signal would tear down the whole test harness if
        // delivery raced another test's expectations).
        on_signal(SIGTERM);
        assert!(flag.load(Ordering::SeqCst));
        flag.store(false, Ordering::SeqCst);
        assert!(!shutdown_flag().load(Ordering::SeqCst));
    }
}
