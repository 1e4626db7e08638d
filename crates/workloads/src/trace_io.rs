//! CSV import/export for demand traces.
//!
//! The generators in this crate are substitutes for the paper's
//! proprietary Wikipedia traces (DESIGN.md §3); a user who *has* real
//! request-rate data can feed it straight in. The format is
//! deliberately minimal: one or two comma-separated columns, optional
//! header, either `value` rows at a caller-given period or `t_s,value`
//! rows from which the period is inferred.

use crate::trace::Trace;
use powersim::units::Seconds;
use std::io::{BufRead, Write};
use std::path::Path;

/// Errors from trace parsing.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceIoError {
    Io(std::io::Error),
    /// Line number (1-based) and message.
    Parse(usize, String),
    Empty,
    /// Timestamps are not uniformly spaced.
    IrregularSampling {
        line: usize,
    },
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "I/O error: {e}"),
            TraceIoError::Parse(line, msg) => write!(f, "line {line}: {msg}"),
            TraceIoError::Empty => write!(f, "trace file contains no samples"),
            TraceIoError::IrregularSampling { line } => {
                write!(f, "line {line}: timestamps are not uniformly spaced")
            }
        }
    }
}

impl std::error::Error for TraceIoError {}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// A streaming, chunked trace parser.
///
/// [`read_trace`] materializes the whole trace; for a full-day CSV
/// feeding an open-loop arrival process that is unnecessary — the tier
/// consumes one demand level per tick. `TraceReader` is an iterator of
/// `Result<Vec<f64>, TraceIoError>` chunks (at most
/// [`TraceReader::chunk_size`] values each) that applies exactly the
/// same format rules as `read_trace`: 1- or 2-column layout lock,
/// header/comment/blank skipping, grid-checked period inference (±1%).
/// Layout and grid violations surface with the same line numbering as
/// the batch parser. After an error the iterator is fused (yields
/// `None` forever); values parsed before the failing line within the
/// same chunk are discarded.
///
/// The inferred sampling period is available from [`TraceReader::dt`]
/// once at least two 2-column rows have been consumed (before that, or
/// for 1-column input, it reports the `default_dt`).
pub struct TraceReader<R: BufRead> {
    lines: std::iter::Enumerate<std::io::Lines<R>>,
    default_dt: Seconds,
    chunk: usize,
    two_col: Option<bool>,
    dt: Option<f64>,
    prev_time: Option<f64>,
    rows: usize,
    done: bool,
}

impl<R: BufRead> TraceReader<R> {
    pub fn new(reader: R, default_dt: Seconds) -> Self {
        assert!(default_dt.0 > 0.0);
        TraceReader {
            lines: reader.lines().enumerate(),
            default_dt,
            chunk: 4096,
            two_col: None,
            dt: None,
            prev_time: None,
            rows: 0,
            done: false,
        }
    }

    /// Set the maximum number of values yielded per chunk.
    pub fn chunk_size(mut self, n: usize) -> Self {
        assert!(n > 0, "chunk size must be positive");
        self.chunk = n;
        self
    }

    /// The sampling period: inferred from the timestamps consumed so
    /// far, or the `default_dt` for 1-column input.
    pub fn dt(&self) -> Seconds {
        self.dt.map_or(self.default_dt, Seconds)
    }

    /// Data rows consumed so far (headers/comments/blanks excluded).
    pub fn rows(&self) -> usize {
        self.rows
    }
}

impl<R: BufRead> Iterator for TraceReader<R> {
    type Item = Result<Vec<f64>, TraceIoError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let mut out = Vec::new();
        while out.len() < self.chunk {
            let Some((i, line)) = self.lines.next() else {
                break;
            };
            let lineno = i + 1;
            let line = match line {
                Ok(l) => l,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e.into()));
                }
            };
            let body = line.split('#').next().unwrap_or("").trim();
            if body.is_empty() {
                continue;
            }
            let cols: Vec<&str> = body.split(',').map(str::trim).collect();
            let parsed: Result<Vec<f64>, _> = cols.iter().map(|c| c.parse::<f64>()).collect();
            let nums = match parsed {
                Ok(n) => n,
                Err(e) => {
                    if self.rows == 0 {
                        continue; // header line
                    }
                    self.done = true;
                    return Some(Err(TraceIoError::Parse(lineno, format!("{e}: {body:?}"))));
                }
            };
            // `str::parse` accepts `nan`, `inf` and `infinity`; a trace
            // carrying one would poison the period or the demand level.
            if nums.iter().any(|v| !v.is_finite()) {
                self.done = true;
                return Some(Err(TraceIoError::Parse(
                    lineno,
                    format!("non-finite field: {body:?}"),
                )));
            }
            let value = match (self.two_col, nums.len()) {
                (None, 1) => {
                    self.two_col = Some(false);
                    nums[0]
                }
                (None, 2) => {
                    self.two_col = Some(true);
                    self.prev_time = Some(nums[0]);
                    nums[1]
                }
                (Some(false), 1) => nums[0],
                (Some(true), 2) => {
                    let t = nums[0];
                    let prev = self.prev_time.expect("two-column rows record a time");
                    let step = t - prev;
                    match self.dt {
                        None => {
                            if step <= 0.0 {
                                self.done = true;
                                return Some(Err(TraceIoError::Parse(
                                    2,
                                    "non-increasing timestamps".into(),
                                )));
                            }
                            self.dt = Some(step);
                        }
                        Some(dt) => {
                            if (step - dt).abs() > dt * 0.01 {
                                self.done = true;
                                // Same numbering as the batch parser:
                                // the offending *data row*, 1-based.
                                return Some(Err(TraceIoError::IrregularSampling {
                                    line: self.rows + 1,
                                }));
                            }
                        }
                    }
                    self.prev_time = Some(t);
                    nums[1]
                }
                (_, n) => {
                    self.done = true;
                    return Some(Err(TraceIoError::Parse(
                        lineno,
                        format!("expected a consistent 1- or 2-column layout, got {n} columns"),
                    )));
                }
            };
            self.rows += 1;
            out.push(value);
        }
        if out.is_empty() {
            self.done = true;
            None
        } else {
            Some(Ok(out))
        }
    }
}

/// Parse a trace from a reader.
///
/// * one column → values sampled at `default_dt`;
/// * two columns (`t_s,value`) → the sampling period is inferred from
///   the first two rows and every subsequent row must stay on the grid
///   (±1% of the period).
///
/// A non-numeric first line is treated as a header and skipped. Blank
/// lines and `#` comments are ignored. A field that parses but is not
/// finite (`nan`, `inf`) is a parse error, like a malformed row. This
/// is the materializing wrapper over [`TraceReader`].
pub fn read_trace<R: BufRead>(reader: R, default_dt: Seconds) -> Result<Trace, TraceIoError> {
    let mut r = TraceReader::new(reader, default_dt);
    let mut values = Vec::new();
    for chunk in &mut r {
        values.extend(chunk?);
    }
    if values.is_empty() {
        return Err(TraceIoError::Empty);
    }
    Ok(Trace::new(r.dt(), values))
}

/// Read a trace from a file path.
pub fn read_trace_file(path: &Path, default_dt: Seconds) -> Result<Trace, TraceIoError> {
    let f = std::fs::File::open(path)?;
    read_trace(std::io::BufReader::new(f), default_dt)
}

/// Write a trace as two-column `t_s,value` CSV.
pub fn write_trace_file(path: &Path, trace: &Trace) -> Result<(), TraceIoError> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "t_s,value")?;
    for (k, v) in trace.values.iter().enumerate() {
        writeln!(out, "{:.3},{v:.6}", k as f64 * trace.dt.0)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn dt1() -> Seconds {
        Seconds(1.0)
    }

    #[test]
    fn single_column_uses_default_dt() {
        let t = read_trace(Cursor::new("0.5\n0.6\n0.7\n"), Seconds(2.0)).unwrap();
        assert_eq!(t.dt, Seconds(2.0));
        assert_eq!(t.values, vec![0.5, 0.6, 0.7]);
    }

    #[test]
    fn two_column_infers_period() {
        let t = read_trace(Cursor::new("0,0.5\n5,0.6\n10,0.7\n"), dt1()).unwrap();
        assert_eq!(t.dt, Seconds(5.0));
        assert_eq!(t.values, vec![0.5, 0.6, 0.7]);
    }

    #[test]
    fn header_comments_and_blanks_are_skipped() {
        let src = "t_s,value\n# a comment\n\n0,0.1\n1,0.2 # trailing comment\n";
        let t = read_trace(Cursor::new(src), dt1()).unwrap();
        assert_eq!(t.values, vec![0.1, 0.2]);
        assert_eq!(t.dt, Seconds(1.0));
    }

    #[test]
    fn irregular_sampling_is_rejected() {
        let err = read_trace(Cursor::new("0,1\n1,2\n3,3\n"), dt1()).unwrap_err();
        assert!(matches!(err, TraceIoError::IrregularSampling { line: 3 }));
    }

    #[test]
    fn garbage_mid_file_is_an_error_with_line_number() {
        // A malformed row, then rows whose fields parse but are not
        // finite: a NaN timestamp, a NaN value and an infinite value.
        for (src, bad_line) in [
            ("1.0\npotato\n", 2),
            ("t_s,value\n0,0.5\nnan,0.5\n2,0.4\n", 3),
            ("value\n0.5\nnan\n0.4\n0.6\n", 3),
            ("value\n0.5\ninf\n0.4\n0.6\n", 3),
        ] {
            match read_trace(Cursor::new(src), dt1()) {
                Err(TraceIoError::Parse(line, _)) => assert_eq!(line, bad_line, "{src:?}"),
                other => panic!("{src:?}: wrong result {other:?}"),
            }
        }
    }

    #[test]
    fn column_count_must_stay_consistent() {
        let err = read_trace(Cursor::new("0,1\n2\n"), dt1()).unwrap_err();
        assert!(matches!(err, TraceIoError::Parse(2, _)));
    }

    #[test]
    fn empty_file_is_an_error() {
        assert!(matches!(
            read_trace(Cursor::new("# nothing\n"), dt1()),
            Err(TraceIoError::Empty)
        ));
    }

    #[test]
    fn streaming_reader_chunks_and_matches_batch() {
        let src: String = (0..100)
            .map(|k| format!("{k},{}\n", k as f64 * 0.01))
            .collect();
        let batch = read_trace(Cursor::new(src.clone()), dt1()).unwrap();
        let mut r = TraceReader::new(Cursor::new(src), dt1()).chunk_size(7);
        let mut streamed = Vec::new();
        let mut chunks = 0;
        for chunk in &mut r {
            let chunk = chunk.unwrap();
            assert!(chunk.len() <= 7);
            streamed.extend(chunk);
            chunks += 1;
        }
        assert_eq!(chunks, 15); // ceil(100 / 7)
        assert_eq!(streamed, batch.values);
        assert_eq!(r.dt(), batch.dt);
        assert_eq!(r.rows(), 100);
    }

    #[test]
    fn streaming_reader_is_fused_after_an_error() {
        let mut r = TraceReader::new(Cursor::new("0,1\n1,2\n3,3\n4,4\n"), dt1()).chunk_size(1);
        assert_eq!(r.next().unwrap().unwrap(), vec![1.0]);
        assert_eq!(r.next().unwrap().unwrap(), vec![2.0]);
        assert!(matches!(
            r.next().unwrap().unwrap_err(),
            TraceIoError::IrregularSampling { line: 3 }
        ));
        assert!(r.next().is_none());
        assert!(r.next().is_none());
    }

    #[test]
    fn streaming_reader_dt_defaults_until_inferred() {
        let mut r = TraceReader::new(Cursor::new("0,0.5\n2,0.6\n"), Seconds(9.0)).chunk_size(1);
        assert_eq!(r.dt(), Seconds(9.0));
        r.next().unwrap().unwrap();
        assert_eq!(r.dt(), Seconds(9.0)); // one row: period not yet known
        r.next().unwrap().unwrap();
        assert_eq!(r.dt(), Seconds(2.0));
    }

    #[test]
    fn lines_split_across_tiny_buffer_refills_parse_identically() {
        // A pathologically small BufReader capacity forces every line to
        // be reassembled from several fill_buf() calls, so records are
        // split mid-number at arbitrary byte boundaries.
        let src: String = (0..50)
            .map(|k| format!("{k},{}\n", k as f64 * 0.1))
            .collect();
        let batch = read_trace(Cursor::new(src.clone()), dt1()).unwrap();
        let tiny = std::io::BufReader::with_capacity(3, Cursor::new(src));
        let mut r = TraceReader::new(tiny, dt1()).chunk_size(4);
        let mut streamed = Vec::new();
        for chunk in &mut r {
            streamed.extend(chunk.unwrap());
        }
        assert_eq!(streamed, batch.values);
        assert_eq!(r.dt(), batch.dt);
    }

    #[test]
    fn trailing_record_without_newline_is_kept() {
        let src = "0,0.5\n1,0.6\n2,0.7"; // no trailing newline
        let batch = read_trace(Cursor::new(src), dt1()).unwrap();
        assert_eq!(batch.values, vec![0.5, 0.6, 0.7]);
        let mut r = TraceReader::new(Cursor::new(src), dt1()).chunk_size(2);
        let streamed: Vec<f64> = (&mut r).flat_map(|c| c.unwrap()).collect();
        assert_eq!(streamed, batch.values);
        assert_eq!(r.rows(), 3);
    }

    #[test]
    fn trailing_partial_record_is_a_parse_error_on_both_paths() {
        // The writer died mid-record: the value column is missing. Both
        // parsers must report the same line with a parse error rather
        // than silently dropping the tail.
        let src = "0,0.5\n1,0.6\n2,";
        let eager = read_trace(Cursor::new(src), dt1()).unwrap_err();
        let TraceIoError::Parse(line, _) = eager else {
            panic!("wrong eager error {eager:?}");
        };
        assert_eq!(line, 3);
        let mut r = TraceReader::new(Cursor::new(src), dt1()).chunk_size(1);
        let last = (&mut r).last().expect("an error chunk");
        assert!(matches!(last, Err(TraceIoError::Parse(3, _))));
        assert!(r.next().is_none(), "reader must be fused after the error");
    }

    #[test]
    fn empty_input_yields_no_chunks() {
        for src in ["", "# only a comment\n", "t_s,value\n\n"] {
            let mut r = TraceReader::new(Cursor::new(src), dt1());
            assert!(r.next().is_none(), "{src:?} produced a chunk");
            assert_eq!(r.rows(), 0);
            assert_eq!(r.dt(), dt1());
            // The materializing wrapper turns the same input into Empty.
            assert!(matches!(
                read_trace(Cursor::new(src), dt1()),
                Err(TraceIoError::Empty)
            ));
        }
    }

    #[test]
    fn error_on_a_chunk_boundary_discards_nothing_already_yielded() {
        // Two good rows then a grid violation. With chunk_size 2 the good
        // rows are yielded as a complete chunk before the error; with
        // chunk_size 3 they fall in the failing chunk and are discarded
        // (the documented contract).
        let src = "0,1\n1,2\n5,3\n";
        let mut r2 = TraceReader::new(Cursor::new(src), dt1()).chunk_size(2);
        assert_eq!(r2.next().unwrap().unwrap(), vec![1.0, 2.0]);
        assert!(r2.next().unwrap().is_err());
        assert!(r2.next().is_none());
        let mut r3 = TraceReader::new(Cursor::new(src), dt1()).chunk_size(3);
        assert!(r3.next().unwrap().is_err());
        assert!(r3.next().is_none());
    }

    #[test]
    fn error_paths_match_the_eager_parser() {
        // Every malformed fixture must produce the same rendered error
        // from the streaming path (regardless of chunk size) as from
        // read_trace.
        let fixtures = [
            "0,1\n1,2\n3,3\n", // irregular sampling
            "1.0\npotato\n",   // garbage mid-file
            "0,1\n2\n",        // column-count flip
            "0,1\n1,2\n1,3\n", // non-increasing would need dt first; grid violation
            "5,1\n4,2\n",      // non-increasing timestamps
            "0,1,9\n",         // three columns on the first data row
        ];
        for src in fixtures {
            let eager = read_trace(Cursor::new(src), dt1()).unwrap_err().to_string();
            for chunk_size in [1, 2, 4096] {
                let mut streamed = None;
                let mut r = TraceReader::new(Cursor::new(src), dt1()).chunk_size(chunk_size);
                for chunk in &mut r {
                    if let Err(e) = chunk {
                        streamed = Some(e.to_string());
                        break;
                    }
                }
                assert_eq!(
                    streamed.as_deref(),
                    Some(eager.as_str()),
                    "{src:?} with chunk_size {chunk_size}"
                );
            }
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("sprintcon_trace_io");
        let path = dir.join("t.csv");
        let orig = Trace::new(Seconds(2.0), vec![0.25, 0.5, 0.75, 1.0]);
        write_trace_file(&path, &orig).unwrap();
        let back = read_trace_file(&path, Seconds(99.0)).unwrap();
        assert_eq!(back.dt, orig.dt);
        for (a, b) in back.values.iter().zip(&orig.values) {
            assert!((a - b).abs() < 1e-9);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
