//! Packet-level capture and cross-run trace diffing.
//!
//! A capture is the frame-by-frame transcript of one simulation run — who
//! transmitted what to whom, in which round and protocol phase, in engine
//! order. Two runs of a deterministic simulator must produce *identical*
//! captures; when they don't (a parity bug, a non-deterministic code
//! path), [`diff`] replays both transcripts side by side and names the
//! first divergent frame, turning "the 8-thread run differs somewhere" into
//! "frame 1047, round 12, node 93, bits 320 vs 328".
//!
//! The wire format is JSONL: one self-describing JSON object per frame,
//! diffable with standard tools and parseable by any JSON reader.

use std::fmt::Write as _;

/// One captured frame (or frame burst) of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketRecord {
    /// Simulation round of the transmission.
    pub round: u32,
    /// Protocol phase name ("init", "validation", …).
    pub phase: String,
    /// Transmission kind ("data", "ack", "bcast_tx", "bcast_rx").
    pub kind: String,
    /// Transmitting node (for broadcast receptions: the parent).
    pub src: u32,
    /// Receiving node (for broadcast transmissions: equals `src`).
    pub dst: u32,
    /// 802.15.4 frames covered.
    pub frames: u64,
    /// Bits on air.
    pub bits: u64,
}

impl PacketRecord {
    /// Serializes one record as a single JSONL line (no trailing newline).
    /// Phase/kind names are identifier-like, so no escaping is needed; any
    /// exotic characters are dropped defensively rather than escaped.
    pub fn to_json_line(&self) -> String {
        let clean = |s: &str| -> String {
            s.chars()
                .filter(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-'))
                .collect()
        };
        format!(
            r#"{{"round":{},"phase":"{}","kind":"{}","src":{},"dst":{},"frames":{},"bits":{}}}"#,
            self.round,
            clean(&self.phase),
            clean(&self.kind),
            self.src,
            self.dst,
            self.frames,
            self.bits
        )
    }
}

/// Serializes a capture as JSONL (one line per frame, trailing newline).
pub fn to_jsonl(records: &[PacketRecord]) -> String {
    let mut out = String::new();
    for r in records {
        let _ = writeln!(out, "{}", r.to_json_line());
    }
    out
}

/// Parses a JSONL capture produced by [`to_jsonl`] (tolerating blank
/// lines). Returns the 1-based line number alongside any parse error.
pub fn parse_jsonl(text: &str) -> Result<Vec<PacketRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        out.push(parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

/// Parses one flat JSON object with string/number values into a record.
/// A repeated key, or a `round`, `src` or `dst` beyond `u32`, is an error:
/// either would make [`diff`] compare something other than what the line
/// says.
fn parse_line(line: &str) -> Result<PacketRecord, String> {
    let inner = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("not a JSON object")?;
    let mut round: Option<u32> = None;
    let mut phase: Option<String> = None;
    let mut kind: Option<String> = None;
    let mut src: Option<u32> = None;
    let mut dst: Option<u32> = None;
    let mut frames: Option<u64> = None;
    let mut bits: Option<u64> = None;
    for field in inner.split(',') {
        let (key, value) = field.split_once(':').ok_or("field without `:`")?;
        let key = key.trim().trim_matches('"');
        let value = value.trim();
        let as_num = |v: &str| -> Result<u64, String> {
            v.parse::<u64>().map_err(|e| format!("{key}: {e}"))
        };
        let as_u32 = |v: &str| -> Result<u32, String> {
            u32::try_from(as_num(v)?).map_err(|_| format!("{key}: {v} exceeds u32"))
        };
        let text = |v: &str| v.trim_matches('"').to_string();
        let repeated = match key {
            "round" => round.replace(as_u32(value)?).is_some(),
            "phase" => phase.replace(text(value)).is_some(),
            "kind" => kind.replace(text(value)).is_some(),
            "src" => src.replace(as_u32(value)?).is_some(),
            "dst" => dst.replace(as_u32(value)?).is_some(),
            "frames" => frames.replace(as_num(value)?).is_some(),
            "bits" => bits.replace(as_num(value)?).is_some(),
            other => return Err(format!("unknown field {other}")),
        };
        if repeated {
            return Err(format!("repeated field {key}"));
        }
    }
    Ok(PacketRecord {
        round: round.ok_or("missing round")?,
        phase: phase.ok_or("missing phase")?,
        kind: kind.ok_or("missing kind")?,
        src: src.ok_or("missing src")?,
        dst: dst.ok_or("missing dst")?,
        frames: frames.ok_or("missing frames")?,
        bits: bits.ok_or("missing bits")?,
    })
}

/// The first point at which two captures disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// 0-based frame index into both captures (equal to the shorter
    /// capture's length when one is a prefix of the other).
    pub frame: usize,
    /// Round of the diverging frame.
    pub round: u32,
    /// Transmitting node of the diverging frame.
    pub node: u32,
    /// Which field differs ("length" when one capture is a prefix).
    pub field: &'static str,
    /// The field's value in the first capture ("∅" past its end).
    pub a: String,
    /// The field's value in the second capture ("∅" past its end).
    pub b: String,
}

/// Outcome of replaying two captures side by side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaptureDiff {
    /// Frames in the first capture.
    pub len_a: usize,
    /// Frames in the second capture.
    pub len_b: usize,
    /// The first divergence, or `None` when the captures are identical.
    pub divergence: Option<Divergence>,
}

impl CaptureDiff {
    /// True iff the captures are frame-for-frame identical.
    pub fn is_identical(&self) -> bool {
        self.divergence.is_none()
    }
}

/// Replays two captures in lockstep and reports the first divergent
/// frame: which (round, node) pair produced it and which field differs.
/// Field comparison order is round, src, dst, kind, phase, frames, bits —
/// so the report names the most structural difference first.
pub fn diff(a: &[PacketRecord], b: &[PacketRecord]) -> CaptureDiff {
    for (i, (ra, rb)) in a.iter().zip(b.iter()).enumerate() {
        if ra == rb {
            continue;
        }
        let (field, va, vb): (&'static str, String, String) = if ra.round != rb.round {
            ("round", ra.round.to_string(), rb.round.to_string())
        } else if ra.src != rb.src {
            ("src", ra.src.to_string(), rb.src.to_string())
        } else if ra.dst != rb.dst {
            ("dst", ra.dst.to_string(), rb.dst.to_string())
        } else if ra.kind != rb.kind {
            ("kind", ra.kind.clone(), rb.kind.clone())
        } else if ra.phase != rb.phase {
            ("phase", ra.phase.clone(), rb.phase.clone())
        } else if ra.frames != rb.frames {
            ("frames", ra.frames.to_string(), rb.frames.to_string())
        } else {
            ("bits", ra.bits.to_string(), rb.bits.to_string())
        };
        return CaptureDiff {
            len_a: a.len(),
            len_b: b.len(),
            divergence: Some(Divergence {
                frame: i,
                round: ra.round.min(rb.round),
                node: ra.src,
                field,
                a: va,
                b: vb,
            }),
        };
    }
    if a.len() != b.len() {
        let i = a.len().min(b.len());
        let extra = a.get(i).or_else(|| b.get(i)).expect("longer capture");
        return CaptureDiff {
            len_a: a.len(),
            len_b: b.len(),
            divergence: Some(Divergence {
                frame: i,
                round: extra.round,
                node: extra.src,
                field: "length",
                a: a.get(i).map_or("∅".to_string(), |r| r.to_json_line()),
                b: b.get(i).map_or("∅".to_string(), |r| r.to_json_line()),
            }),
        };
    }
    CaptureDiff {
        len_a: a.len(),
        len_b: b.len(),
        divergence: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(round: u32, src: u32, bits: u64) -> PacketRecord {
        PacketRecord {
            round,
            phase: "validation".into(),
            kind: "data".into(),
            src,
            dst: src.saturating_sub(1),
            frames: 1,
            bits,
        }
    }

    #[test]
    fn jsonl_roundtrips() {
        let records = vec![rec(0, 3, 128), rec(1, 2, 320)];
        let text = to_jsonl(&records);
        assert_eq!(text.lines().count(), 2);
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_jsonl("not json").is_err());
        assert!(parse_jsonl(r#"{"round":1}"#).is_err(), "missing fields");
        assert!(parse_jsonl(
            r#"{"round":"x","phase":"a","kind":"b","src":1,"dst":0,"frames":1,"bits":8}"#
        )
        .is_err());
        let err = parse_jsonl("\n{bad\n").unwrap_err();
        assert!(err.starts_with("line 2"), "{err}");
        // Round, src and dst must fit in u32 instead of wrapping, so a
        // round of 2^32 + 1 cannot pass for round 1.
        let line = |round: &str, src: &str, dst: &str| {
            format!(
                r#"{{"round":{round},"phase":"a","kind":"b","src":{src},"dst":{dst},"frames":1,"bits":8}}"#
            )
        };
        assert!(parse_jsonl(&line("4294967295", "1", "0")).is_ok());
        for (round, src, dst) in [
            ("4294967297", "1", "0"),
            ("1", "4294967296", "0"),
            ("1", "1", "4294967296"),
        ] {
            let err = parse_jsonl(&format!("\n{}", line(round, src, dst))).unwrap_err();
            assert!(
                err.starts_with("line 2") && err.contains("exceeds u32"),
                "{err}"
            );
        }
        // A repeated key is rejected, not silently last-wins.
        let err = parse_jsonl(
            r#"{"round":1,"phase":"a","kind":"b","src":1,"dst":0,"frames":1,"bits":8,"bits":9}"#,
        )
        .unwrap_err();
        assert!(
            err.starts_with("line 1") && err.contains("repeated field bits"),
            "{err}"
        );
    }

    #[test]
    fn identical_captures_diff_clean() {
        let a = vec![rec(0, 3, 128), rec(1, 2, 320)];
        let d = diff(&a, &a.clone());
        assert!(d.is_identical());
        assert_eq!(d.len_a, 2);
    }

    #[test]
    fn single_bit_flip_is_localized() {
        let a = vec![rec(0, 3, 128), rec(1, 2, 320), rec(1, 1, 320)];
        let mut b = a.clone();
        b[1].bits ^= 1; // one flipped bit on the wire
        let d = diff(&a, &b);
        let div = d.divergence.expect("must diverge");
        assert_eq!(div.frame, 1);
        assert_eq!(div.round, 1);
        assert_eq!(div.node, 2);
        assert_eq!(div.field, "bits");
        assert_eq!(div.a, "320");
        assert_eq!(div.b, "321");
    }

    #[test]
    fn prefix_capture_reports_length_divergence() {
        let a = vec![rec(0, 3, 128), rec(1, 2, 320)];
        let b = a[..1].to_vec();
        let d = diff(&a, &b);
        let div = d.divergence.expect("must diverge");
        assert_eq!(div.field, "length");
        assert_eq!(div.frame, 1);
        assert_eq!(div.round, 1);
        assert_eq!(div.node, 2);
        assert_eq!(div.b, "∅");
    }
}
