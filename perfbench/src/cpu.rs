//! CPU time from the kernel's per-process and per-thread clocks.
//!
//! The end-to-end metrics are CPU time, not wall time. On a guest whose
//! kernel does paravirtual steal accounting (Linux with
//! `CONFIG_PARAVIRT_TIME_ACCOUNTING`, as on KVM guests), these clocks leave
//! out the time the host gave this guest's CPUs to someone else. They also
//! leave out time spent runnable but waiting for a CPU, and time a pool
//! thread sits parked. What remains is the work the program did. Wall time
//! on a shared host moves with the neighbours' load as well; the traced
//! run still reports it per layer (`wall.*`).

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn read(clock: c_int) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    #[allow(unsafe_code)]
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds used so far by every thread of this process.
pub fn process_s() -> f64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds used so far by the calling thread.
pub fn thread_s() -> f64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// Process CPU seconds `f` took, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = process_s();
    let r = f();
    (r, process_s() - t)
}
