//! The process CPU clock, which the end-to-end metrics are timed with.
//!
//! On a shared host the wall clock of a run moves with whatever the
//! neighbours do: time a vCPU is descheduled, or a thread waits behind
//! another process, lands in every wall-clock reading. CPU time counts
//! only the time this process's threads ran (with the kernel's steal-time
//! accounting, not the time the hypervisor ran someone else), so it
//! measures the program's own work. It still moves with how fast the
//! host runs the process's core; [`crate::speed`] scales that out.
//! Wall-clock figures are still taken and recorded as run notes.

use std::time::Instant;

/// A point on the process CPU clock and the wall clock.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    cpu_s: f64,
    wall: Instant,
}

impl Stamp {
    pub fn now() -> Stamp {
        Stamp {
            cpu_s: process_cpu_s(),
            wall: Instant::now(),
        }
    }

    /// Both clocks' seconds since this stamp: `(cpu, wall)`, where `cpu`
    /// is the CPU time of all the process's threads.
    pub fn elapsed(&self) -> (f64, f64) {
        let cpu = process_cpu_s() - self.cpu_s;
        (cpu, self.wall.elapsed().as_secs_f64())
    }
}

/// An [`Stamp::elapsed`] pair in milliseconds.
pub fn ms((cpu_s, wall_s): (f64, f64)) -> (f64, f64) {
    (cpu_s * 1e3, wall_s * 1e3)
}

/// CPU seconds used so far by every thread of this process, those that
/// have exited included.
fn process_cpu_s() -> f64 {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds used so far by the calling thread.
pub fn thread_cpu_s() -> f64 {
    clock_s(CLOCK_THREAD_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Reads a Linux CPU clock (`clock_gettime(2)`; libc is already linked
/// by std).
#[allow(unsafe_code)]
fn clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec of the platform's layout
    // (64-bit fields on the 64-bit Linux targets this benchmark runs on),
    // and clock_gettime writes only through that pointer.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// What the end-to-end timings are measured with, for the run notes.
pub const CLOCK: &str =
    "process CPU time (CLOCK_PROCESS_CPUTIME_ID), scaled to the reference speed";
