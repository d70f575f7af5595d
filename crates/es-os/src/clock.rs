//! The virtual clock and resource accounting.
//!
//! Figure 1 of the paper spoofs `%pipe` to wrap every pipeline element
//! in `time`, printing per-stage real/user/sys times. Reproducing that
//! deterministically needs a clock under our control: every simulated
//! program *charges* user and system time proportional to the work it
//! does, and real time advances accordingly. The constants are tuned
//! so that a few tens of kilobytes of text through a filter costs a few
//! tenths of a virtual second — the same order as the paper's output.

use std::ops::{Add, AddAssign, Sub};

/// Base user-time cost of an exec (process startup).
pub const EXEC_USER_NS: u64 = 80_000_000;
/// Base system-time cost of an exec (fork + exec overhead).
pub const EXEC_SYS_NS: u64 = 60_000_000;
/// System time charged per I/O system call.
pub const SYSCALL_SYS_NS: u64 = 30_000;
/// System time charged per byte moved through read/write.
pub const BYTE_SYS_NS: u64 = 2_000;
/// User time charged per byte a program processes.
pub const BYTE_USER_NS: u64 = 4_000;

/// Accumulated user + system CPU time, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rusage {
    /// Time spent in "user" code.
    pub user_ns: u64,
    /// Time spent in the "kernel".
    pub sys_ns: u64,
}

impl Rusage {
    /// Total CPU time.
    pub fn total_ns(&self) -> u64 {
        self.user_ns + self.sys_ns
    }

    /// User time in (fractional) seconds.
    pub fn user_secs(&self) -> f64 {
        self.user_ns as f64 / 1e9
    }

    /// System time in (fractional) seconds.
    pub fn sys_secs(&self) -> f64 {
        self.sys_ns as f64 / 1e9
    }
}

impl Add for Rusage {
    type Output = Rusage;
    fn add(self, rhs: Rusage) -> Rusage {
        Rusage {
            user_ns: self.user_ns + rhs.user_ns,
            sys_ns: self.sys_ns + rhs.sys_ns,
        }
    }
}

impl AddAssign for Rusage {
    fn add_assign(&mut self, rhs: Rusage) {
        self.user_ns += rhs.user_ns;
        self.sys_ns += rhs.sys_ns;
    }
}

impl Sub for Rusage {
    type Output = Rusage;
    fn sub(self, rhs: Rusage) -> Rusage {
        Rusage {
            user_ns: self.user_ns.saturating_sub(rhs.user_ns),
            sys_ns: self.sys_ns.saturating_sub(rhs.sys_ns),
        }
    }
}

/// The simulated calendar epoch: 1993-01-25, the first day of the
/// Winter USENIX conference where the paper was presented.
pub const EPOCH: (i64, u32, u32) = (1993, 1, 25);

/// Converts virtual nanoseconds-since-epoch into a civil date/time
/// `(year, month, day, hour, minute, second)`.
pub fn civil_from_ns(ns: u64) -> (i64, u32, u32, u32, u32, u32) {
    let total_secs = ns / 1_000_000_000;
    let (mut y, mut m, mut d) = EPOCH;
    let mut days = total_secs / 86_400;
    let secs = total_secs % 86_400;
    while days > 0 {
        let dim = days_in_month(y, m) as u64;
        let remaining_in_month = dim - d as u64;
        if days > remaining_in_month {
            days -= remaining_in_month + 1;
            d = 1;
            m += 1;
            if m > 12 {
                m = 1;
                y += 1;
            }
        } else {
            d += days as u32;
            days = 0;
        }
    }
    (
        y,
        m,
        d,
        (secs / 3600) as u32,
        ((secs % 3600) / 60) as u32,
        (secs % 60) as u32,
    )
}

fn is_leap(y: i64) -> bool {
    (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
}

fn days_in_month(y: i64, m: u32) -> u32 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 if is_leap(y) => 29,
        2 => 28,
        _ => unreachable!("month out of range"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_conference_day() {
        assert_eq!(civil_from_ns(0), (1993, 1, 25, 0, 0, 0));
    }

    #[test]
    fn seconds_roll_over() {
        assert_eq!(civil_from_ns(61_000_000_000), (1993, 1, 25, 0, 1, 1));
        assert_eq!(
            civil_from_ns(86_400 * 1_000_000_000),
            (1993, 1, 26, 0, 0, 0)
        );
    }

    #[test]
    fn month_and_year_roll_over() {
        // 7 days past Jan 25 = Feb 1.
        let ns = 7 * 86_400 * 1_000_000_000;
        let (y, m, d, ..) = civil_from_ns(ns);
        assert_eq!((y, m, d), (1993, 2, 1));
        // 365 days later: Jan 25, 1994 (1993 not a leap year).
        let ns = 365 * 86_400 * 1_000_000_000;
        let (y, m, d, ..) = civil_from_ns(ns);
        assert_eq!((y, m, d), (1994, 1, 25));
    }

    #[test]
    fn leap_february_1996() {
        // Days from 1993-01-25 to 1996-02-29.
        let days = 365 * 3 + 4 + 31 + 29 - 25; // through 1996-02-29 inclusive-ish
        let (y, m, ..) = civil_from_ns(days * 86_400 * 1_000_000_000);
        assert_eq!(y, 1996);
        assert!(m <= 3);
        assert!(is_leap(1996) && !is_leap(1993) && is_leap(2000) && !is_leap(1900));
    }

    #[test]
    fn rusage_arithmetic() {
        let a = Rusage {
            user_ns: 5,
            sys_ns: 2,
        };
        let b = Rusage {
            user_ns: 1,
            sys_ns: 1,
        };
        assert_eq!((a + b).total_ns(), 9);
        assert_eq!((a - b).user_ns, 4);
        assert_eq!((b - a).user_ns, 0, "saturating");
        let mut c = a;
        c += b;
        assert_eq!(c.user_ns, 6);
    }
}
