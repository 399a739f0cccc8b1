//! Zero-dependency SIGINT/SIGTERM latch.
//!
//! No `libc` crate in this workspace, so the handler is installed through
//! the C `signal(2)` symbol directly. The handler only flips an atomic —
//! the one thing that is async-signal-safe — and the serve loop polls it.

use std::sync::atomic::{AtomicBool, Ordering};

static REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_sig: i32) {
        super::REQUESTED.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Install the handlers. Idempotent.
pub fn install() {
    imp::install();
}

/// Has a shutdown signal arrived since install?
pub fn requested() -> bool {
    REQUESTED.load(Ordering::SeqCst)
}
