//! Event-trace hooks for the simulation engine.
//!
//! A [`TraceSink`] observes every event the engine processes — arrivals
//! (with the routing decision taken), departures (including stale ones
//! rejected by the generational call table), failure teardowns, and link
//! state changes. [`Run::sink`](crate::engine::Run::sink) threads a
//! sink through the event loop; the default
//! [`NullTraceSink`] compiles to nothing, so the untraced
//! [`run_seed`](crate::engine::run_seed) path pays no cost.
//!
//! [`BinaryTraceWriter`] serialises the stream into the compact
//! versioned format documented below ([`FlightSink`] keeps only its
//! newest records, for the anomaly flight recorder), and [`decode_trace`] /
//! [`diff_traces`] turn two byte blobs into a first-divergence report.
//! The conformance crate checks traces of fixed scenarios into the repo
//! as *golden traces*: any change to event ordering, RNG stream layout,
//! or admission logic shows up as a byte-level divergence at a specific
//! event index instead of a silent statistical drift.
//!
//! # Binary format (version 1)
//!
//! All integers little-endian. Times are stored as raw `f64` bit
//! patterns, so byte equality is exact equality of the simulated clock.
//!
//! ```text
//! header:  magic  b"ALTR"          4 bytes
//!          version u16             currently 1
//!          seed    u64             replication master seed
//!          label   u16 len + UTF-8 scenario identifier
//! record:  tag     u8
//!          time    u64             f64 bits of the event time
//!          payload                 per tag:
//!            0 arrival, blocked    pair u32
//!            1 arrival, primary    pair u32, hops u8, link u32 × hops
//!            2 arrival, alternate  pair u32, hops u8, link u32 × hops
//!            3 departure           call u32, gen u32
//!            4 departure, stale    call u32, gen u32
//!            5 failure teardown    call u32, gen u32
//!            6 link down           link u32
//!            7 link up             link u32
//! ```

use altroute_core::policy::CallClass;
use altroute_netgraph::graph::LinkId;
use altroute_telemetry::flight::FlightLatch;
use std::collections::VecDeque;
use std::fmt;

/// Current version of the binary trace format.
pub const TRACE_FORMAT_VERSION: u16 = 1;

const MAGIC: [u8; 4] = *b"ALTR";

/// The routing outcome of one arrival, as seen by a [`TraceSink`].
#[derive(Debug, Clone, Copy)]
pub enum TraceDecision<'a> {
    /// The call was blocked.
    Blocked,
    /// The call was carried over `links`.
    Routed {
        /// Primary or alternate.
        class: CallClass,
        /// The links of the booked path, in path order.
        links: &'a [LinkId],
    },
}

/// Observer of the engine's event stream.
///
/// Implementations must be cheap: the engine calls a method per event.
/// The no-op [`NullTraceSink`] keeps the untraced path free.
pub trait TraceSink {
    /// A call arrived for `pair` and the router decided `decision`.
    fn arrival(&mut self, time: f64, pair: u32, decision: TraceDecision<'_>);
    /// A departure event fired for call handle `(call, gen)`; `stale` is
    /// true when the generational table rejected it (the call was torn
    /// down earlier and the slot possibly reused).
    fn departure(&mut self, time: f64, call: u32, gen: u32, stale: bool);
    /// A link failure tore down the in-progress call `(call, gen)`.
    fn teardown(&mut self, time: f64, call: u32, gen: u32);
    /// A link changed operational state.
    fn link_change(&mut self, time: f64, link: u32, up: bool);
}

/// A borrowed sink observes exactly what the sink itself would: this is
/// how [`Run::sink`](crate::engine::Run::sink) attaches a caller-owned
/// sink without taking it over.
impl<T: TraceSink> TraceSink for &mut T {
    #[inline(always)]
    fn arrival(&mut self, time: f64, pair: u32, decision: TraceDecision<'_>) {
        (**self).arrival(time, pair, decision);
    }
    #[inline(always)]
    fn departure(&mut self, time: f64, call: u32, gen: u32, stale: bool) {
        (**self).departure(time, call, gen, stale);
    }
    #[inline(always)]
    fn teardown(&mut self, time: f64, call: u32, gen: u32) {
        (**self).teardown(time, call, gen);
    }
    #[inline(always)]
    fn link_change(&mut self, time: f64, link: u32, up: bool) {
        (**self).link_change(time, link, up);
    }
}

/// A [`TraceSink`] that records nothing — the default for untraced runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTraceSink;

impl TraceSink for NullTraceSink {
    #[inline(always)]
    fn arrival(&mut self, _: f64, _: u32, _: TraceDecision<'_>) {}
    #[inline(always)]
    fn departure(&mut self, _: f64, _: u32, _: u32, _: bool) {}
    #[inline(always)]
    fn teardown(&mut self, _: f64, _: u32, _: u32) {}
    #[inline(always)]
    fn link_change(&mut self, _: f64, _: u32, _: bool) {}
}

/// Serialises the event stream into the version-1 binary format.
#[derive(Debug, Clone)]
pub struct BinaryTraceWriter {
    bytes: Vec<u8>,
}

impl BinaryTraceWriter {
    /// Starts a trace: writes the header for `seed` and `label`.
    ///
    /// # Panics
    ///
    /// Panics if `label` exceeds `u16::MAX` bytes.
    pub fn new(seed: u64, label: &str) -> Self {
        let mut bytes = Vec::with_capacity(64 + label.len());
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&TRACE_FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&seed.to_le_bytes());
        let len = u16::try_from(label.len()).expect("label fits in u16");
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(label.as_bytes());
        Self { bytes }
    }

    /// Consumes the writer and returns the encoded trace.
    pub fn finish(self) -> Vec<u8> {
        self.bytes
    }

    fn record(&mut self, tag: u8, time: f64) {
        self.bytes.push(tag);
        self.bytes.extend_from_slice(&time.to_bits().to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
}

impl TraceSink for BinaryTraceWriter {
    fn arrival(&mut self, time: f64, pair: u32, decision: TraceDecision<'_>) {
        match decision {
            TraceDecision::Blocked => {
                self.record(0, time);
                self.u32(pair);
            }
            TraceDecision::Routed { class, links } => {
                let tag = match class {
                    CallClass::Primary => 1,
                    CallClass::Alternate => 2,
                };
                self.record(tag, time);
                self.u32(pair);
                let hops = u8::try_from(links.len()).expect("paths have < 256 hops");
                self.bytes.push(hops);
                for &l in links {
                    self.u32(u32::try_from(l).expect("link id fits in u32"));
                }
            }
        }
    }

    fn departure(&mut self, time: f64, call: u32, gen: u32, stale: bool) {
        self.record(if stale { 4 } else { 3 }, time);
        self.u32(call);
        self.u32(gen);
    }

    fn teardown(&mut self, time: f64, call: u32, gen: u32) {
        self.record(5, time);
        self.u32(call);
        self.u32(gen);
    }

    fn link_change(&mut self, time: f64, link: u32, up: bool) {
        self.record(if up { 7 } else { 6 }, time);
        self.u32(link);
    }
}

/// Decoded trace header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Format version the trace was written with.
    pub version: u16,
    /// Replication master seed.
    pub seed: u64,
    /// Scenario label.
    pub label: String,
}

/// One decoded trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Raw `f64` bits of the event time (bit-exact comparison).
    pub time_bits: u64,
    /// What happened.
    pub kind: TraceRecordKind,
}

impl TraceRecord {
    /// The event time as a float.
    pub fn time(&self) -> f64 {
        f64::from_bits(self.time_bits)
    }
}

/// The payload of a decoded trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceRecordKind {
    /// Arrival for `pair`, blocked.
    Blocked {
        /// Row-major pair index.
        pair: u32,
    },
    /// Arrival for `pair`, routed over `links`.
    Routed {
        /// Row-major pair index.
        pair: u32,
        /// Primary or alternate.
        class: CallClass,
        /// Links of the booked path.
        links: Vec<u32>,
    },
    /// Departure of call handle `(call, gen)`; `stale` when rejected.
    Departure {
        /// Call slot.
        call: u32,
        /// Slot generation at scheduling time.
        gen: u32,
        /// Whether the generational table rejected the event.
        stale: bool,
    },
    /// Failure teardown of call handle `(call, gen)`.
    Teardown {
        /// Call slot.
        call: u32,
        /// Slot generation.
        gen: u32,
    },
    /// Link state change.
    Link {
        /// Link id.
        link: u32,
        /// New state.
        up: bool,
    },
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.9} ", self.time())?;
        match &self.kind {
            TraceRecordKind::Blocked { pair } => write!(f, "arrival pair={pair} blocked"),
            TraceRecordKind::Routed { pair, class, links } => {
                let class = match class {
                    CallClass::Primary => "primary",
                    CallClass::Alternate => "alternate",
                };
                write!(f, "arrival pair={pair} routed {class} links={links:?}")
            }
            TraceRecordKind::Departure { call, gen, stale } => {
                let suffix = if *stale { " (stale)" } else { "" };
                write!(f, "departure call={call} gen={gen}{suffix}")
            }
            TraceRecordKind::Teardown { call, gen } => {
                write!(f, "teardown call={call} gen={gen}")
            }
            TraceRecordKind::Link { link, up } => {
                write!(f, "link {link} {}", if *up { "up" } else { "down" })
            }
        }
    }
}

/// A malformed trace blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The magic bytes were wrong or the blob was too short.
    BadMagic,
    /// The version field is not one this build can decode.
    UnsupportedVersion(u16),
    /// The blob ended mid-record at the given offset.
    Truncated(usize),
    /// Unknown record tag at the given offset.
    BadTag(u8, usize),
    /// The label was not valid UTF-8.
    BadLabel,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a trace file (bad magic)"),
            TraceError::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::Truncated(at) => write!(f, "trace truncated at byte {at}"),
            TraceError::BadTag(tag, at) => write!(f, "unknown record tag {tag} at byte {at}"),
            TraceError::BadLabel => write!(f, "trace label is not valid UTF-8"),
        }
    }
}

impl std::error::Error for TraceError {}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        if self.pos + n > self.bytes.len() {
            return Err(TraceError::Truncated(self.pos));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, TraceError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, TraceError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, TraceError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, TraceError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Decodes a binary trace into its header and record list.
pub fn decode_trace(bytes: &[u8]) -> Result<(TraceHeader, Vec<TraceRecord>), TraceError> {
    let mut c = Cursor { bytes, pos: 0 };
    if c.take(4).map_err(|_| TraceError::BadMagic)? != MAGIC {
        return Err(TraceError::BadMagic);
    }
    let version = c.u16()?;
    if version != TRACE_FORMAT_VERSION {
        return Err(TraceError::UnsupportedVersion(version));
    }
    let seed = c.u64()?;
    let label_len = c.u16()? as usize;
    let label = std::str::from_utf8(c.take(label_len)?)
        .map_err(|_| TraceError::BadLabel)?
        .to_owned();
    let header = TraceHeader {
        version,
        seed,
        label,
    };
    let mut records = Vec::new();
    while c.pos < bytes.len() {
        let at = c.pos;
        let tag = c.u8()?;
        let time_bits = c.u64()?;
        let kind = match tag {
            0 => TraceRecordKind::Blocked { pair: c.u32()? },
            1 | 2 => {
                let pair = c.u32()?;
                let hops = c.u8()? as usize;
                let mut links = Vec::with_capacity(hops);
                for _ in 0..hops {
                    links.push(c.u32()?);
                }
                TraceRecordKind::Routed {
                    pair,
                    class: if tag == 1 {
                        CallClass::Primary
                    } else {
                        CallClass::Alternate
                    },
                    links,
                }
            }
            3 | 4 => TraceRecordKind::Departure {
                call: c.u32()?,
                gen: c.u32()?,
                stale: tag == 4,
            },
            5 => TraceRecordKind::Teardown {
                call: c.u32()?,
                gen: c.u32()?,
            },
            6 | 7 => TraceRecordKind::Link {
                link: c.u32()?,
                up: tag == 7,
            },
            other => return Err(TraceError::BadTag(other, at)),
        };
        records.push(TraceRecord { time_bits, kind });
    }
    Ok((header, records))
}

/// The result of comparing two traces.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceDiff {
    /// The traces are identical.
    Identical,
    /// The headers differ.
    Header {
        /// Left header.
        left: TraceHeader,
        /// Right header.
        right: TraceHeader,
    },
    /// The first differing record.
    Record {
        /// Index of the first divergent event.
        index: usize,
        /// The left trace's record at that index.
        left: TraceRecord,
        /// The right trace's record at that index.
        right: TraceRecord,
    },
    /// One trace is a strict prefix of the other.
    Length {
        /// Number of records in the left trace.
        left: usize,
        /// Number of records in the right trace.
        right: usize,
    },
}

impl TraceDiff {
    /// Whether the traces matched exactly.
    pub fn is_identical(&self) -> bool {
        matches!(self, TraceDiff::Identical)
    }
}

impl fmt::Display for TraceDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceDiff::Identical => write!(f, "traces identical"),
            TraceDiff::Header { left, right } => {
                write!(f, "headers differ: {left:?} vs {right:?}")
            }
            TraceDiff::Record { index, left, right } => {
                write!(
                    f,
                    "first divergence at event {index}:\n  - {left}\n  + {right}"
                )
            }
            TraceDiff::Length { left, right } => {
                write!(
                    f,
                    "record counts differ: {left} vs {right} (common prefix matches)"
                )
            }
        }
    }
}

/// The anomaly flight recorder: a [`TraceSink`] keeping the newest
/// `capacity` events as encoded version-1 trace records.
///
/// Each event goes through [`BinaryTraceWriter`]'s record encoder into
/// one byte buffer; a queue of record starts drops the oldest record
/// once more than `capacity` are held, and the dead prefix is cut off
/// whenever it outgrows the live records, so the buffer stays within
/// twice the live bytes. Once the shared [`FlightLatch`] is set (by the
/// trigger side, a window-boundary recorder hook in the same serial
/// event loop), events are dropped, so the recording keeps the approach
/// to the anomaly. [`FlightSink::dump`] is then a trace like any golden:
/// [`decode_trace`] and [`diff_traces`] replay it.
#[derive(Debug)]
pub struct FlightSink<'a> {
    latch: &'a FlightLatch,
    capacity: usize,
    /// Headerless record stream; `starts` index into its bytes.
    records: BinaryTraceWriter,
    starts: VecDeque<usize>,
}

impl<'a> FlightSink<'a> {
    /// A sink holding the newest `capacity` records until `latch` is set.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(latch: &'a FlightLatch, capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder needs capacity > 0");
        Self {
            latch,
            capacity,
            records: BinaryTraceWriter { bytes: Vec::new() },
            starts: VecDeque::with_capacity(capacity + 1),
        }
    }

    /// Encodes one record with `write` unless the latch is set, then
    /// drops the oldest record past `capacity`.
    fn push(&mut self, write: impl FnOnce(&mut BinaryTraceWriter)) {
        if self.latch.get().is_some() {
            return;
        }
        self.starts.push_back(self.records.bytes.len());
        write(&mut self.records);
        if self.starts.len() > self.capacity {
            self.starts.pop_front();
            let dead = self.starts[0];
            if dead > self.records.bytes.len() - dead {
                self.records.bytes.drain(..dead);
                self.starts.iter_mut().for_each(|s| *s -= dead);
            }
        }
    }

    /// The held records, oldest first, as a trace with the
    /// [`BinaryTraceWriter::new`] header for `seed` and `label`.
    pub fn dump(&self, seed: u64, label: &str) -> Vec<u8> {
        let oldest = self.starts.front().copied().unwrap_or(0);
        let mut bytes = BinaryTraceWriter::new(seed, label).finish();
        bytes.extend_from_slice(&self.records.bytes[oldest..]);
        bytes
    }
}

impl TraceSink for FlightSink<'_> {
    fn arrival(&mut self, time: f64, pair: u32, decision: TraceDecision<'_>) {
        self.push(|w| w.arrival(time, pair, decision));
    }

    fn departure(&mut self, time: f64, call: u32, gen: u32, stale: bool) {
        self.push(|w| w.departure(time, call, gen, stale));
    }

    fn teardown(&mut self, time: f64, call: u32, gen: u32) {
        self.push(|w| w.teardown(time, call, gen));
    }

    fn link_change(&mut self, time: f64, link: u32, up: bool) {
        self.push(|w| w.link_change(time, link, up));
    }
}

/// Decodes both blobs and reports the first divergence, if any.
pub fn diff_traces(left: &[u8], right: &[u8]) -> Result<TraceDiff, TraceError> {
    if left == right {
        return Ok(TraceDiff::Identical);
    }
    let (lh, lr) = decode_trace(left)?;
    let (rh, rr) = decode_trace(right)?;
    if lh != rh {
        return Ok(TraceDiff::Header {
            left: lh,
            right: rh,
        });
    }
    for (i, (l, r)) in lr.iter().zip(rr.iter()).enumerate() {
        if l != r {
            return Ok(TraceDiff::Record {
                index: i,
                left: l.clone(),
                right: r.clone(),
            });
        }
    }
    if lr.len() != rr.len() {
        return Ok(TraceDiff::Length {
            left: lr.len(),
            right: rr.len(),
        });
    }
    // Byte difference with identical decoded content cannot happen with a
    // canonical encoder, but report it as identical content regardless.
    Ok(TraceDiff::Identical)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Vec<u8> {
        let mut w = BinaryTraceWriter::new(42, "unit");
        w.arrival(
            0.5,
            3,
            TraceDecision::Routed {
                class: CallClass::Primary,
                links: &[1usize, 7],
            },
        );
        w.arrival(0.75, 3, TraceDecision::Blocked);
        w.link_change(1.0, 2, false);
        w.teardown(1.0, 0, 0);
        w.departure(1.5, 0, 1, true);
        w.link_change(2.0, 2, true);
        w.finish()
    }

    #[test]
    fn roundtrip_decodes_every_record() {
        let bytes = sample_trace();
        let (header, records) = decode_trace(&bytes).unwrap();
        assert_eq!(header.version, TRACE_FORMAT_VERSION);
        assert_eq!(header.seed, 42);
        assert_eq!(header.label, "unit");
        assert_eq!(records.len(), 6);
        assert_eq!(
            records[0].kind,
            TraceRecordKind::Routed {
                pair: 3,
                class: CallClass::Primary,
                links: vec![1, 7],
            }
        );
        assert_eq!(records[0].time(), 0.5);
        assert_eq!(records[1].kind, TraceRecordKind::Blocked { pair: 3 });
        assert_eq!(
            records[4].kind,
            TraceRecordKind::Departure {
                call: 0,
                gen: 1,
                stale: true
            }
        );
        assert_eq!(records[5].kind, TraceRecordKind::Link { link: 2, up: true });
    }

    #[test]
    fn diff_identical_and_divergent() {
        let a = sample_trace();
        assert!(diff_traces(&a, &a).unwrap().is_identical());

        let mut w = BinaryTraceWriter::new(42, "unit");
        w.arrival(
            0.5,
            3,
            TraceDecision::Routed {
                class: CallClass::Primary,
                links: &[1usize, 7],
            },
        );
        // Second event differs: routed instead of blocked.
        w.arrival(
            0.75,
            3,
            TraceDecision::Routed {
                class: CallClass::Alternate,
                links: &[4usize],
            },
        );
        let b = w.finish();
        match diff_traces(&a, &b).unwrap() {
            TraceDiff::Record { index, .. } => assert_eq!(index, 1),
            other => panic!("expected record divergence, got {other:?}"),
        }
    }

    #[test]
    fn diff_detects_header_and_length_changes() {
        let a = sample_trace();
        let other_seed = BinaryTraceWriter::new(43, "unit").finish();
        assert!(matches!(
            diff_traces(&a, &other_seed).unwrap(),
            TraceDiff::Header { .. }
        ));
        // Strict prefix.
        let (_, records) = decode_trace(&a).unwrap();
        let shorter = &a[..a.len() - 5];
        // Truncating mid-record is a decode error, not a diff.
        assert!(diff_traces(&a, shorter).is_err());
        let prefix = BinaryTraceWriter::new(42, "unit").finish();
        match diff_traces(&a, &prefix).unwrap() {
            TraceDiff::Length { left, right } => {
                assert_eq!(left, records.len());
                assert_eq!(right, 0);
            }
            other => panic!("expected length divergence, got {other:?}"),
        }
    }

    #[test]
    fn flight_dump_roundtrips_through_the_trace_decoder() {
        use altroute_telemetry::flight::TriggerReason;
        use altroute_telemetry::mode::Mode;

        let latch = FlightLatch::default();
        let mut sink = FlightSink::new(&latch, 3);
        // Four events into a 3-record recorder: the first is evicted.
        sink.arrival(
            0.5,
            3,
            TraceDecision::Routed {
                class: CallClass::Primary,
                links: &[1usize, 7],
            },
        );
        sink.arrival(
            0.75,
            4,
            TraceDecision::Routed {
                class: CallClass::Alternate,
                links: &[2usize],
            },
        );
        sink.arrival(1.0, 3, TraceDecision::Blocked);
        sink.departure(1.5, 0, 1, true);
        latch.set(Some(TriggerReason::ModeSwitch {
            at: 2.0,
            to: Mode::High,
        }));
        sink.teardown(2.5, 9, 9); // dropped: the latch is set

        let bytes = sink.dump(42, "flight:unit");
        let (header, records) = decode_trace(&bytes).expect("flight dump decodes");
        assert_eq!(header.label, "flight:unit");
        assert_eq!(header.seed, 42);
        assert_eq!(records.len(), 3);
        assert_eq!(
            records[0].kind,
            TraceRecordKind::Routed {
                pair: 4,
                class: CallClass::Alternate,
                links: vec![2],
            },
            "oldest surviving event first"
        );
        assert_eq!(records[1].kind, TraceRecordKind::Blocked { pair: 3 });
        assert_eq!(
            records[2].kind,
            TraceRecordKind::Departure {
                call: 0,
                gen: 1,
                stale: true
            }
        );
        // The dump is a well-formed trace: diffing it against itself
        // exercises the same path the golden-trace replayer uses.
        assert!(diff_traces(&bytes, &bytes).unwrap().is_identical());
    }

    /// Record `i` of a mixed stream: every record kind, paths of 0–3
    /// hops, so record lengths vary and trims land mid-buffer.
    fn mixed_event(sink: &mut impl TraceSink, i: u32) {
        let t = f64::from(i) * 0.25;
        let links = [i as usize, 1, 2];
        match i % 6 {
            0 => sink.arrival(t, i, TraceDecision::Blocked),
            1 | 2 => sink.arrival(
                t,
                i,
                TraceDecision::Routed {
                    class: CallClass::Alternate,
                    links: &links[..(i % 4) as usize],
                },
            ),
            3 => sink.departure(t, i, i + 1, i.is_multiple_of(2)),
            4 => sink.teardown(t, i, 2),
            _ => sink.link_change(t, i, i % 2 == 1),
        }
    }

    /// After every write the dump is the header plus exactly the newest
    /// `capacity` records of a full-length recording of the same stream,
    /// oldest first, across many trims and compactions; once the latch
    /// is set, writes are dropped and the dump stops moving.
    #[test]
    fn flight_sink_holds_the_tail_of_a_full_recording() {
        use altroute_telemetry::flight::TriggerReason;
        use altroute_telemetry::mode::Mode;

        let header = BinaryTraceWriter::new(7, "tail").finish();
        for capacity in [1, 2, 5] {
            let latch = FlightLatch::default();
            let mut sink = FlightSink::new(&latch, capacity);
            assert_eq!(sink.dump(7, "tail"), header, "empty recording");
            let mut full = BinaryTraceWriter::new(7, "tail");
            let mut starts = Vec::new();
            for i in 0..200 {
                starts.push(full.bytes.len());
                mixed_event(&mut full, i);
                mixed_event(&mut sink, i);
                let oldest = starts[starts.len().saturating_sub(capacity)];
                let expected = [&header[..], &full.bytes[oldest..]].concat();
                assert_eq!(
                    sink.dump(7, "tail"),
                    expected,
                    "capacity {capacity}, write {i}"
                );
            }
            let frozen = sink.dump(7, "tail");
            latch.set(Some(TriggerReason::ModeSwitch {
                at: 50.0,
                to: Mode::Low,
            }));
            mixed_event(&mut sink, 200);
            assert_eq!(
                sink.dump(7, "tail"),
                frozen,
                "write dropped after the latch"
            );
        }
    }

    #[test]
    fn malformed_blobs_error_cleanly() {
        assert_eq!(decode_trace(b"nope").unwrap_err(), TraceError::BadMagic);
        let mut v2 = sample_trace();
        v2[4] = 2;
        assert_eq!(
            decode_trace(&v2).unwrap_err(),
            TraceError::UnsupportedVersion(2)
        );
        let mut bad_tag = sample_trace();
        let tag_offset = 4 + 2 + 8 + 2 + 4; // header with 4-byte label
        bad_tag[tag_offset] = 99;
        assert!(matches!(
            decode_trace(&bad_tag).unwrap_err(),
            TraceError::BadTag(99, _)
        ));
    }
}
