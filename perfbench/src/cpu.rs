//! The CPU clock of the process.
//!
//! On a shared VM the hypervisor takes CPU time from the guest ("steal").
//! Wall-clock timings stretch with it; this clock does not, because the
//! guest kernel leaves stolen time out of the CPU time it charges a task
//! (paravirtual steal-time accounting).

use std::time::Duration;

// `Timespec` below is the 64-bit Linux layout of `struct timespec`.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the process CPU clock is read as on 64-bit Linux");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time of every thread of the process so far.
pub fn process() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the clock id exists on every Linux.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}
