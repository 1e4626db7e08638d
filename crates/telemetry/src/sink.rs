//! Trace sinks: where span/event records go.
//!
//! A [`Sink`] receives every [`Record`] emitted while its collector is
//! installed. Three implementations cover the useful points of the
//! cost/visibility trade-off:
//!
//! * [`NullSink`] — drops everything; the zero-cost default,
//! * [`MemorySink`] — bounded in-memory ring buffer, for tests and
//!   post-run inspection,
//! * [`JsonlSink`] — streams one JSON object per record to any writer
//!   (typically a file), for offline analysis.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::Mutex;

/// A dynamically-typed field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    F64(f64),
    I64(i64),
    U64(u64),
    Bool(bool),
    Str(String),
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl Value {
    /// Render as a JSON fragment.
    pub fn to_json(&self) -> String {
        match self {
            Value::F64(v) if v.is_finite() => format!("{v}"),
            Value::F64(_) => "null".to_string(),
            Value::I64(v) => format!("{v}"),
            Value::U64(v) => format!("{v}"),
            Value::Bool(v) => format!("{v}"),
            Value::Str(s) => json_string(s),
        }
    }
}

/// Escape a string as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One trace record. The collector stamps `seq` (a per-collector counter)
/// so records are totally ordered without any wall-clock dependence.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A point-in-time event with named fields.
    Event {
        seq: u64,
        name: String,
        fields: Vec<(String, Value)>,
    },
    /// A closed span: a named scope and how long it took.
    Span {
        seq: u64,
        name: &'static str,
        nanos: u64,
    },
}

impl Record {
    pub fn name(&self) -> &str {
        match self {
            Record::Event { name, .. } => name,
            Record::Span { name, .. } => name,
        }
    }

    pub fn seq(&self) -> u64 {
        match self {
            Record::Event { seq, .. } | Record::Span { seq, .. } => *seq,
        }
    }

    /// One-line JSON rendering (the JSONL wire format).
    pub fn to_json(&self) -> String {
        match self {
            Record::Event { seq, name, fields } => {
                let mut out = format!(
                    "{{\"type\":\"event\",\"seq\":{seq},\"name\":{}",
                    json_string(name)
                );
                if !fields.is_empty() {
                    out.push_str(",\"fields\":{");
                    for (i, (k, v)) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&json_string(k));
                        out.push(':');
                        out.push_str(&v.to_json());
                    }
                    out.push('}');
                }
                out.push('}');
                out
            }
            Record::Span { seq, name, nanos } => format!(
                "{{\"type\":\"span\",\"seq\":{seq},\"name\":{},\"dur_ns\":{nanos}}}",
                json_string(name)
            ),
        }
    }
}

/// Destination for trace records. Implementations must be thread-safe:
/// parallel sweeps run one collector per worker, but a single collector may
/// also be installed globally and hit from several threads.
pub trait Sink: Send + Sync {
    fn record(&self, rec: &Record);
    fn flush(&self) {}
}

/// Drops every record. With this sink installed the only instrumentation
/// cost is the (branch-predicted) collector lookup and metric updates.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&self, _rec: &Record) {}
}

/// Bounded ring buffer of the most recent records.
#[derive(Debug)]
pub struct MemorySink {
    ring: Mutex<VecDeque<Record>>,
    capacity: usize,
}

impl MemorySink {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        MemorySink {
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
        }
    }

    /// Snapshot of the buffered records, oldest first.
    pub fn records(&self) -> Vec<Record> {
        self.ring
            .lock()
            .expect("telemetry ring poisoned")
            .iter()
            .cloned()
            .collect()
    }

    pub fn len(&self) -> usize {
        self.ring.lock().expect("telemetry ring poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn record(&self, rec: &Record) {
        let mut ring = self.ring.lock().expect("telemetry ring poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(rec.clone());
    }
}

/// Streams records as JSON Lines to an arbitrary writer.
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonlSink {
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out: Mutex::new(writer),
        }
    }

    /// Convenience constructor writing to a (truncated) file.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let f = std::fs::File::create(path)?;
        Ok(JsonlSink::new(Box::new(std::io::BufWriter::new(f))))
    }
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl Sink for JsonlSink {
    fn record(&self, rec: &Record) {
        let mut out = self.out.lock().expect("telemetry writer poisoned");
        let _ = writeln!(out, "{}", rec.to_json());
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("telemetry writer poisoned").flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_is_a_ring() {
        let s = MemorySink::new(3);
        for i in 0..5u64 {
            s.record(&Record::Span {
                seq: i,
                name: "t",
                nanos: i,
            });
        }
        let recs = s.records();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].seq(), 2);
        assert_eq!(recs[2].seq(), 4);
    }

    #[test]
    fn record_json_shapes() {
        let e = Record::Event {
            seq: 7,
            name: "mode_change".into(),
            fields: vec![
                ("from".into(), Value::from("sprint")),
                ("t".into(), Value::from(12.5)),
                ("ok".into(), Value::from(true)),
            ],
        };
        assert_eq!(
            e.to_json(),
            "{\"type\":\"event\",\"seq\":7,\"name\":\"mode_change\",\
             \"fields\":{\"from\":\"sprint\",\"t\":12.5,\"ok\":true}}"
        );
        let s = Record::Span {
            seq: 1,
            name: "sim.tick",
            nanos: 42,
        };
        assert!(s.to_json().contains("\"dur_ns\":42"));
    }

    #[test]
    fn json_strings_escape_controls() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let buf: Vec<u8> = Vec::new();
        let shared = std::sync::Arc::new(Mutex::new(buf));
        struct W(std::sync::Arc<Mutex<Vec<u8>>>);
        impl Write for W {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonlSink::new(Box::new(W(shared.clone())));
        sink.record(&Record::Span {
            seq: 0,
            name: "x",
            nanos: 1,
        });
        sink.record(&Record::Event {
            seq: 1,
            name: "y".into(),
            fields: vec![],
        });
        sink.flush();
        let text = String::from_utf8(shared.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        assert_eq!(Value::F64(f64::NAN).to_json(), "null");
        assert_eq!(Value::F64(1.5).to_json(), "1.5");
    }
}
