//! Errno-style error type shared by the whole substrate.
//!
//! The shell observes UNIX failures as `errno` strings ("No such file
//! or directory" in the paper's `in /temp` example); the simulated
//! kernel reports the same vocabulary so es error messages reproduce
//! byte-for-byte.

use std::fmt;

/// A kernel-level error, tagged with the operand that caused it where
/// that helps error messages (paths, program names).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OsError {
    /// ENOENT — no such file or directory.
    NoEnt(String),
    /// EACCES — permission denied.
    Access(String),
    /// ENOTDIR — a path component is not a directory.
    NotDir(String),
    /// EISDIR — tried to use a directory as a file.
    IsDir(String),
    /// EEXIST — file exists.
    Exists(String),
    /// EBADF — bad descriptor.
    BadF,
    /// EPIPE — broken pipe.
    Pipe,
    /// ENOEXEC — exec format error (not an executable).
    NoExec(String),
    /// ENOTEMPTY — directory not empty.
    NotEmpty(String),
    /// EINVAL — invalid argument.
    Inval(String),
    /// ECHILD — no such child process.
    Child,
    /// ENOSYS — operation not supported by this backend.
    NoSys(String),
    /// EIO — an I/O error from the real OS backend.
    Io(String),
    /// EINTR — the call was interrupted; retrying is safe.
    Intr,
    /// ENOSPC — no space left on device.
    NoSpc(String),
    /// EMFILE — too many open files.
    MFile,
}

impl OsError {
    /// The classic `strerror(3)` text for this error.
    pub fn strerror(&self) -> &'static str {
        match self {
            OsError::NoEnt(_) => "No such file or directory",
            OsError::Access(_) => "Permission denied",
            OsError::NotDir(_) => "Not a directory",
            OsError::IsDir(_) => "Is a directory",
            OsError::Exists(_) => "File exists",
            OsError::BadF => "Bad file descriptor",
            OsError::Pipe => "Broken pipe",
            OsError::NoExec(_) => "Exec format error",
            OsError::NotEmpty(_) => "Directory not empty",
            OsError::Inval(_) => "Invalid argument",
            OsError::Child => "No child processes",
            OsError::NoSys(_) => "Function not implemented",
            OsError::Io(_) => "Input/output error",
            OsError::Intr => "Interrupted system call",
            OsError::NoSpc(_) => "No space left on device",
            OsError::MFile => "Too many open files",
        }
    }

    /// The errno a host I/O error stands for, with no operand.
    pub(crate) fn io(e: std::io::Error) -> OsError {
        match e.kind() {
            std::io::ErrorKind::NotFound => OsError::NoEnt(String::new()),
            std::io::ErrorKind::PermissionDenied => OsError::Access(String::new()),
            _ => OsError::Io(e.to_string()),
        }
    }

    /// Is this `EINTR`? Such failures happen *before* any state
    /// changed, so the caller may simply retry the call.
    pub fn is_intr(&self) -> bool {
        matches!(self, OsError::Intr)
    }

    /// The operand (path, program name, ...) attached to this error.
    pub fn operand(&self) -> Option<&str> {
        match self {
            OsError::NoEnt(s)
            | OsError::Access(s)
            | OsError::NotDir(s)
            | OsError::IsDir(s)
            | OsError::Exists(s)
            | OsError::NoExec(s)
            | OsError::NotEmpty(s)
            | OsError::Inval(s)
            | OsError::NoSys(s)
            | OsError::Io(s)
            | OsError::NoSpc(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for OsError {
    /// Shows `operand: strerror`, like `perror(3)` output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.operand() {
            Some(op) if !op.is_empty() => write!(f, "{}: {}", op, self.strerror()),
            _ => write!(f, "{}", self.strerror()),
        }
    }
}

impl std::error::Error for OsError {}

/// Substrate result alias.
pub type OsResult<T> = Result<T, OsError>;
