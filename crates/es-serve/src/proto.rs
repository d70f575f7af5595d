//! The serving protocol: length-prefixed frames over any byte stream.
//!
//! A frame is one ASCII header line — `name arg... <payload-len>\n` —
//! followed by exactly `payload-len` raw payload bytes. Headers carry
//! only small integers and enum words, payloads carry tenant bytes
//! (command text, stdout/stderr runs, error details), so arbitrary
//! binary output frames cleanly and the encoded stream is
//! byte-comparable — the server's event log is the length and digest
//! of every frame it consumed and emitted, encoded, and the soak
//! suite's replay oracle compares two runs' logs.

use std::fmt;

/// A containment class carried by [`Frame::Fault`] — why a session
/// ended abnormally. Budget breaches are *not* here: a breach is a
/// per-command error (the session survives it), reported through
/// [`Frame::Done`] with `ok = false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// The slot's evaluator panicked; the panic was caught at the slot
    /// boundary, the slot scrubbed, the session ended.
    Panic,
    /// The server cancelled the session's in-flight command (client
    /// close or drain deadline).
    Cancelled,
    /// The reset oracle found cross-session state bleed when the slot
    /// was recycled. Never expected; the slot is retired, not reused.
    Oracle,
    /// A frame referenced a session id the server does not know.
    NoSession,
}

impl FaultClass {
    /// The wire word for this class.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::Panic => "panic",
            FaultClass::Cancelled => "cancelled",
            FaultClass::Oracle => "oracle",
            FaultClass::NoSession => "nosession",
        }
    }

    /// Parses a wire word.
    pub fn parse(s: &str) -> Option<FaultClass> {
        match s {
            "panic" => Some(FaultClass::Panic),
            "cancelled" => Some(FaultClass::Cancelled),
            "oracle" => Some(FaultClass::Oracle),
            "nosession" => Some(FaultClass::NoSession),
            _ => None,
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One protocol frame, client→server or server→client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    // ---- client → server ------------------------------------------------
    /// Spawn a session. The payload is a comma-separated limit spec
    /// (`steps=20000,output=65536`) re-armed before every command;
    /// `fault_seed` arms deterministic syscall weather for the whole
    /// session. Answered by [`Frame::Opened`] or [`Frame::Shed`].
    Open {
        /// Per-session limit spec, merged over the server default.
        /// The kind names stay strings here; `Server::open` parses
        /// them, and rejects the open if one names no kind.
        limits: Vec<(String, u64)>,
        /// FaultPlan seed for injected kernel weather, if any.
        fault_seed: Option<u64>,
    },
    /// Feed one command line to a session (queued FIFO per session).
    Line {
        /// Target session.
        sid: u64,
        /// The es command text.
        cmd: String,
    },
    /// Close a session; cancels any in-flight command first.
    Close {
        /// Target session.
        sid: u64,
    },
    /// Enter drain mode: shed all new opens, give in-flight commands
    /// up to `grace` more timeslices, cancel stragglers, close
    /// everything, answer with [`Frame::Drained`].
    Drain {
        /// Timeslices each in-flight command may still consume.
        grace: u64,
    },

    // ---- server → client ------------------------------------------------
    /// Session admitted.
    Opened {
        /// The new session's id.
        sid: u64,
    },
    /// Session refused (admission control): retry after the given
    /// hint. `attempt` is the server's consecutive-shed streak — the
    /// exponential-backoff exponent the hint was computed from.
    Shed {
        /// Suggested client wait before retrying, in milliseconds.
        retry_after_ms: u64,
        /// Consecutive sheds so far (backoff exponent).
        attempt: u32,
    },
    /// A run of the session's standard output.
    Out {
        /// Owning session.
        sid: u64,
        /// Raw stdout bytes.
        bytes: Vec<u8>,
    },
    /// A run of the session's standard error (includes the governor's
    /// 90%-of-limit warnings — routed per session, never interleaved
    /// into another tenant's stream).
    Err {
        /// Owning session.
        sid: u64,
        /// Raw stderr bytes.
        bytes: Vec<u8>,
    },
    /// One command finished. `ok = false` carries the error text —
    /// including catchable budget breaches (`limit steps 2000 2000`)
    /// and watchdog signals (`signal sigalrm`); the session survives.
    Done {
        /// Owning session.
        sid: u64,
        /// Did the command produce a value (vs unwind with an error)?
        ok: bool,
        /// The value (space-joined) or the error text.
        value: String,
    },
    /// The session ended abnormally; see [`FaultClass`].
    Fault {
        /// Owning session (0 when no session is involved).
        sid: u64,
        /// Why.
        class: FaultClass,
        /// Human-readable detail (panic message, cancel reason, ...).
        detail: String,
    },
    /// Session closed; its slot was scrubbed and returned to the pool.
    Closed {
        /// The session that closed.
        sid: u64,
    },
    /// Drain finished.
    Drained {
        /// In-flight commands that completed within the grace budget.
        finished: u64,
        /// Commands (and their sessions) cancelled at the deadline.
        cancelled: u64,
    },
}

/// A decode failure: the byte stream violates the framing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// More bytes are needed to complete the frame.
    NeedMore,
    /// The header or payload is malformed.
    Bad(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::NeedMore => f.write_str("incomplete frame"),
            ProtoError::Bad(msg) => write!(f, "bad frame: {msg}"),
        }
    }
}

impl std::error::Error for ProtoError {}

fn header(out: &mut Vec<u8>, parts: &[&str], plen: usize) {
    for p in parts {
        out.extend_from_slice(p.as_bytes());
        out.push(b' ');
    }
    out.extend_from_slice(plen.to_string().as_bytes());
    out.push(b'\n');
}

/// Encodes the limit spec an [`Frame::Open`] payload carries.
pub fn encode_limits(limits: &[(String, u64)]) -> String {
    limits
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// Parses an [`Frame::Open`] limit-spec payload.
pub fn parse_limits(s: &str) -> Result<Vec<(String, u64)>, ProtoError> {
    let mut out = Vec::new();
    for part in s.split(',').filter(|p| !p.is_empty()) {
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| ProtoError::Bad(format!("limit spec '{part}'")))?;
        let v: u64 = v
            .parse()
            .map_err(|_| ProtoError::Bad(format!("limit value '{part}'")))?;
        out.push((k.to_string(), v));
    }
    Ok(out)
}

impl Frame {
    /// Appends the encoded frame to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Open { limits, fault_seed } => {
                let payload = encode_limits(limits);
                let seed = match fault_seed {
                    Some(s) => s.to_string(),
                    None => "-".to_string(),
                };
                header(out, &["open", &seed], payload.len());
                out.extend_from_slice(payload.as_bytes());
            }
            Frame::Line { sid, cmd } => {
                header(out, &["line", &sid.to_string()], cmd.len());
                out.extend_from_slice(cmd.as_bytes());
            }
            Frame::Close { sid } => header(out, &["close", &sid.to_string()], 0),
            Frame::Drain { grace } => header(out, &["drain", &grace.to_string()], 0),
            Frame::Opened { sid } => header(out, &["opened", &sid.to_string()], 0),
            Frame::Shed {
                retry_after_ms,
                attempt,
            } => header(
                out,
                &["shed", &retry_after_ms.to_string(), &attempt.to_string()],
                0,
            ),
            Frame::Out { sid, bytes } => {
                header(out, &["out", &sid.to_string()], bytes.len());
                out.extend_from_slice(bytes);
            }
            Frame::Err { sid, bytes } => {
                header(out, &["err", &sid.to_string()], bytes.len());
                out.extend_from_slice(bytes);
            }
            Frame::Done { sid, ok, value } => {
                let okw = if *ok { "ok" } else { "err" };
                header(out, &["done", &sid.to_string(), okw], value.len());
                out.extend_from_slice(value.as_bytes());
            }
            Frame::Fault { sid, class, detail } => {
                header(
                    out,
                    &["fault", &sid.to_string(), class.name()],
                    detail.len(),
                );
                out.extend_from_slice(detail.as_bytes());
            }
            Frame::Closed { sid } => header(out, &["closed", &sid.to_string()], 0),
            Frame::Drained {
                finished,
                cancelled,
            } => header(
                out,
                &["drained", &finished.to_string(), &cancelled.to_string()],
                0,
            ),
        }
    }

    /// The encoded frame as a fresh byte vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decodes one frame from the front of `buf`; returns the frame
    /// and how many bytes it consumed. [`ProtoError::NeedMore`] means
    /// the buffer holds only a prefix of a frame so far.
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), ProtoError> {
        let nl = buf
            .iter()
            .position(|&b| b == b'\n')
            .ok_or(ProtoError::NeedMore)?;
        let head = std::str::from_utf8(&buf[..nl])
            .map_err(|_| ProtoError::Bad("non-utf8 header".into()))?;
        let words: Vec<&str> = head.split(' ').collect();
        let plen: usize = words
            .last()
            .ok_or_else(|| ProtoError::Bad("empty header".into()))?
            .parse()
            .map_err(|_| ProtoError::Bad(format!("payload length in '{head}'")))?;
        let body_start = nl + 1;
        if buf.len() < body_start + plen {
            return Err(ProtoError::NeedMore);
        }
        let payload = &buf[body_start..body_start + plen];
        let used = body_start + plen;
        let text = || {
            String::from_utf8(payload.to_vec())
                .map_err(|_| ProtoError::Bad("non-utf8 text payload".into()))
        };
        let int = |s: &str| -> Result<u64, ProtoError> {
            s.parse()
                .map_err(|_| ProtoError::Bad(format!("integer '{s}' in '{head}'")))
        };
        let arity = |n: usize| -> Result<(), ProtoError> {
            if words.len() == n + 2 {
                Ok(())
            } else {
                Err(ProtoError::Bad(format!("arity of '{head}'")))
            }
        };
        let frame = match words[0] {
            "open" => {
                arity(1)?;
                let fault_seed = match words[1] {
                    "-" => None,
                    s => Some(int(s)?),
                };
                Frame::Open {
                    limits: parse_limits(&text()?)?,
                    fault_seed,
                }
            }
            "line" => {
                arity(1)?;
                Frame::Line {
                    sid: int(words[1])?,
                    cmd: text()?,
                }
            }
            "close" => {
                arity(1)?;
                Frame::Close {
                    sid: int(words[1])?,
                }
            }
            "drain" => {
                arity(1)?;
                Frame::Drain {
                    grace: int(words[1])?,
                }
            }
            "opened" => {
                arity(1)?;
                Frame::Opened {
                    sid: int(words[1])?,
                }
            }
            "shed" => {
                arity(2)?;
                Frame::Shed {
                    retry_after_ms: int(words[1])?,
                    attempt: int(words[2])? as u32,
                }
            }
            "out" => {
                arity(1)?;
                Frame::Out {
                    sid: int(words[1])?,
                    bytes: payload.to_vec(),
                }
            }
            "err" => {
                arity(1)?;
                Frame::Err {
                    sid: int(words[1])?,
                    bytes: payload.to_vec(),
                }
            }
            "done" => {
                arity(2)?;
                let ok = match words[2] {
                    "ok" => true,
                    "err" => false,
                    other => return Err(ProtoError::Bad(format!("done status '{other}'"))),
                };
                Frame::Done {
                    sid: int(words[1])?,
                    ok,
                    value: text()?,
                }
            }
            "fault" => {
                arity(2)?;
                let class = FaultClass::parse(words[2])
                    .ok_or_else(|| ProtoError::Bad(format!("fault class '{}'", words[2])))?;
                Frame::Fault {
                    sid: int(words[1])?,
                    class,
                    detail: text()?,
                }
            }
            "closed" => {
                arity(1)?;
                Frame::Closed {
                    sid: int(words[1])?,
                }
            }
            "drained" => {
                arity(2)?;
                Frame::Drained {
                    finished: int(words[1])?,
                    cancelled: int(words[2])?,
                }
            }
            other => return Err(ProtoError::Bad(format!("unknown frame '{other}'"))),
        };
        Ok((frame, used))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let bytes = f.encode();
        let (back, used) = Frame::decode(&bytes).expect("decodes");
        assert_eq!(used, bytes.len());
        assert_eq!(back, f);
    }

    #[test]
    fn frames_roundtrip() {
        roundtrip(Frame::Open {
            limits: vec![("steps".into(), 20000), ("output".into(), 65536)],
            fault_seed: Some(7),
        });
        roundtrip(Frame::Open {
            limits: vec![],
            fault_seed: None,
        });
        roundtrip(Frame::Line {
            sid: 3,
            cmd: "echo hi | wc -l".into(),
        });
        roundtrip(Frame::Close { sid: 9 });
        roundtrip(Frame::Drain { grace: 4 });
        roundtrip(Frame::Opened { sid: 1 });
        roundtrip(Frame::Shed {
            retry_after_ms: 800,
            attempt: 3,
        });
        roundtrip(Frame::Out {
            sid: 2,
            bytes: b"binary\n\x00\xffrun".to_vec(),
        });
        roundtrip(Frame::Err {
            sid: 2,
            bytes: b"es: warning: steps\n".to_vec(),
        });
        roundtrip(Frame::Done {
            sid: 4,
            ok: false,
            value: "limit steps 100 100".into(),
        });
        roundtrip(Frame::Fault {
            sid: 5,
            class: FaultClass::Panic,
            detail: "injected".into(),
        });
        roundtrip(Frame::Closed { sid: 5 });
        roundtrip(Frame::Drained {
            finished: 10,
            cancelled: 2,
        });
    }

    #[test]
    fn partial_input_needs_more() {
        let bytes = Frame::Line {
            sid: 1,
            cmd: "echo hello".into(),
        }
        .encode();
        for cut in 0..bytes.len() {
            assert_eq!(
                Frame::decode(&bytes[..cut]).unwrap_err(),
                ProtoError::NeedMore,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn payloads_may_contain_newlines_and_headers() {
        // A payload that *looks* like a frame header must not confuse
        // the decoder: length-prefix framing reads it as bytes.
        let evil = b"close 99 0\nopen - 0\n".to_vec();
        let f = Frame::Out {
            sid: 1,
            bytes: evil,
        };
        let bytes = f.encode();
        let (back, used) = Frame::decode(&bytes).expect("decodes");
        assert_eq!(used, bytes.len());
        assert_eq!(back, f);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(matches!(
            Frame::decode(b"bogus 1 0\n"),
            Err(ProtoError::Bad(_))
        ));
        assert!(matches!(
            Frame::decode(b"done 1 maybe 0\n"),
            Err(ProtoError::Bad(_))
        ));
    }

    #[test]
    fn limit_specs_roundtrip() {
        let spec = vec![("steps".to_string(), 5u64), ("fds".to_string(), 9u64)];
        assert_eq!(parse_limits(&encode_limits(&spec)).unwrap(), spec);
        assert_eq!(parse_limits("").unwrap(), vec![]);
        assert!(parse_limits("steps").is_err());
        assert!(parse_limits("steps=abc").is_err());
    }
}
