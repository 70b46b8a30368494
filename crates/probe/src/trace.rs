//! The trace file: Tempest's on-disk interchange format.
//!
//! §3.2: *"The profiling information for every node in the cluster along
//! with the timestamps is aggregated into a trace file."* A [`Trace`] holds
//! one node's worth: node metadata, the function symbol table, the scope
//! (entry/exit) event stream, and the sensor sample stream. The binary
//! format is versioned and self-describing; [`Trace::write_to`] /
//! [`Trace::read_from`] round-trip it, and [`Trace::to_text`] renders a
//! human-readable dump for debugging.

use crate::event::{Event, EventKind, ThreadId};
use crate::func::{FunctionDef, FunctionId, ScopeKind};
use crate::limits::{CancelToken, DecodeLimits, LimitExceeded, ResourceBudget};
use std::io::{self, Read, Write};
use std::path::Path;
use tempest_sensors::{SensorId, SensorKind, SensorReading, Temperature};

/// Magic + version prefix of the binary format.
const MAGIC: &[u8; 8] = b"TMPEST01";

/// On-disk size of one event record: tag u8 + thread u32 + payload u32 + ts u64.
const EVENT_RECORD_LEN: usize = 1 + 4 + 4 + 8;
/// On-disk size of one sample record: sensor u16 + ts u64 + f64 bits.
const SAMPLE_RECORD_LEN: usize = 2 + 8 + 8;

/// Approximate in-memory overhead charged against the byte budget per
/// decoded sensor / function entry, on top of the name bytes.
const SENSOR_META_COST: usize = std::mem::size_of::<SensorMeta>();
const FUNCTION_META_COST: usize = std::mem::size_of::<FunctionDef>();
/// Smallest encoded sensor entry (id, kind, empty label) and function
/// entry (id, address, kind, empty name): they bound how many entries the
/// bytes left can hold.
const SENSOR_ENTRY_MIN_LEN: usize = 2 + 1 + 2;
const FUNCTION_ENTRY_MIN_LEN: usize = 4 + 8 + 1 + 2;

/// Description of one sensor as recorded in the trace header.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorMeta {
    /// Identifier used by the node's readings.
    pub id: SensorId,
    /// Human-readable sensor label.
    pub label: String,
    /// What the sensor measures.
    pub kind: SensorKind,
}

/// Which node of the cluster produced a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeMeta {
    /// Rank of the node within the cluster (0-based).
    pub node_id: u32,
    /// Hostname, for human-readable reports.
    pub hostname: String,
    /// The node's sensor inventory.
    pub sensors: Vec<SensorMeta>,
}

impl NodeMeta {
    /// Metadata for a single unnamed node with no sensors (tests, simple
    /// native runs before sensor discovery).
    pub fn anonymous() -> Self {
        NodeMeta {
            node_id: 0,
            hostname: "localhost".to_string(),
            sensors: Vec::new(),
        }
    }
}

/// One node's complete profiling record.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Which node produced the trace.
    pub node: NodeMeta,
    /// The symbol table: every instrumented scope.
    pub functions: Vec<FunctionDef>,
    /// Function entry/exit events, in recording order.
    pub events: Vec<Event>,
    /// Sensor samples, in sampling order.
    pub samples: Vec<SensorReading>,
}

/// Errors from reading a trace.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the trace magic.
    BadMagic,
    /// Structurally invalid content (reason attached).
    Corrupt(&'static str),
    /// A declared quantity exceeded the configured [`DecodeLimits`], or a
    /// deadline/byte budget tripped mid-decode.
    Limit(LimitExceeded),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "I/O error reading trace: {e}"),
            TraceError::BadMagic => write!(f, "not a Tempest trace (bad magic)"),
            TraceError::Corrupt(what) => write!(f, "corrupt trace: {what}"),
            TraceError::Limit(e) => write!(f, "trace rejected: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl From<LimitExceeded> for TraceError {
    fn from(e: LimitExceeded) -> Self {
        TraceError::Limit(e)
    }
}

/// Which section of the binary layout a salvage read stopped in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceSection {
    /// Node id / hostname / sensor inventory.
    NodeMeta,
    /// The function symbol table.
    Functions,
    /// The scope-event stream.
    Events,
    /// The sensor-sample stream.
    Samples,
}

impl std::fmt::Display for TraceSection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TraceSection::NodeMeta => "node metadata",
            TraceSection::Functions => "function table",
            TraceSection::Events => "event stream",
            TraceSection::Samples => "sample stream",
        })
    }
}

/// What [`Trace::read_salvage`] managed to recover.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SalvageReport {
    /// Section in which parsing stopped, or `None` if the trace was intact.
    pub truncated_in: Option<TraceSection>,
    /// Events the header declared (0 if truncated before the event count).
    pub events_declared: u64,
    /// Events actually recovered.
    pub events_salvaged: u64,
    /// Samples the header declared (0 if truncated before the count).
    pub samples_declared: u64,
    /// Samples actually recovered.
    pub samples_salvaged: u64,
    /// Non-finite sample temperatures dropped during salvage.
    pub nonfinite_samples_skipped: u64,
    /// Scope events the *writer* shed under backpressure before they ever
    /// reached disk (recorded in a spool's session footer; always 0 for
    /// plain trace files).
    pub events_dropped_backpressure: u64,
    /// Sensor samples the writer shed under backpressure (tempd's bounded
    /// path; always 0 for plain trace files).
    pub samples_dropped_backpressure: u64,
    /// The resource-limit overrun that stopped decoding, if one did
    /// (declared-count/cardinality cap, byte budget, or deadline).
    pub limit: Option<LimitExceeded>,
}

impl SalvageReport {
    /// True when nothing was lost: the trace parsed to the end.
    pub fn is_clean(&self) -> bool {
        self.truncated_in.is_none()
            && self.nonfinite_samples_skipped == 0
            && self.events_dropped_backpressure == 0
            && self.samples_dropped_backpressure == 0
            && self.limit.is_none()
    }

    /// Events the header promised but the file no longer contains.
    pub fn events_lost(&self) -> u64 {
        self.events_declared.saturating_sub(self.events_salvaged)
    }

    /// Samples the header promised but were truncated or non-finite.
    pub fn samples_lost(&self) -> u64 {
        self.samples_declared.saturating_sub(self.samples_salvaged)
    }
}

/// A mixed stream split as it arrives: scope events to one vector,
/// samples to the other, each remembering whether it arrived in timestamp
/// order. The one assembly behind [`Trace::from_mixed_events`] and spool
/// recovery, which sends each frame's records straight to their streams.
#[derive(Debug)]
pub(crate) struct MixedStreams {
    events: Vec<Event>,
    samples: Vec<SensorReading>,
    last_event_ns: u64,
    last_sample_ns: u64,
    events_in_order: bool,
    samples_in_order: bool,
}

impl MixedStreams {
    /// Empty streams with room for `events` scope events.
    pub(crate) fn with_event_capacity(events: usize) -> Self {
        MixedStreams {
            events: Vec::with_capacity(events),
            samples: Vec::new(),
            last_event_ns: 0,
            last_sample_ns: 0,
            events_in_order: true,
            samples_in_order: true,
        }
    }

    /// Send one record to its stream.
    pub(crate) fn push(&mut self, e: Event) {
        match e.kind {
            EventKind::Sample {
                sensor,
                millicelsius,
            } => self.push_sample(sensor, e.timestamp_ns, millicelsius),
            _ => self.extend_events(std::iter::once(e)),
        }
    }

    /// Send a run of scope events (enter, exit and gap markers, never a
    /// sample) to the events stream in one extend.
    #[inline]
    pub(crate) fn extend_events(&mut self, run: impl Iterator<Item = Event>) {
        let (mut last, mut in_order) = (self.last_event_ns, self.events_in_order);
        // `map`, not `inspect`: only `map` keeps the run's exact length
        // known to `extend`, which then writes with no capacity check per
        // event.
        #[allow(clippy::manual_inspect)]
        self.events.extend(run.map(|e| {
            debug_assert!(!matches!(e.kind, EventKind::Sample { .. }));
            in_order &= e.timestamp_ns >= last;
            last = e.timestamp_ns;
            e
        }));
        self.last_event_ns = last;
        self.events_in_order = in_order;
    }

    /// Send a sample to the samples stream.
    #[inline]
    pub(crate) fn push_sample(&mut self, sensor: SensorId, timestamp_ns: u64, millicelsius: i32) {
        self.samples_in_order &= timestamp_ns >= self.last_sample_ns;
        self.last_sample_ns = timestamp_ns;
        self.samples.push(SensorReading::new(
            sensor,
            timestamp_ns,
            Temperature::from_millicelsius(i64::from(millicelsius)),
        ));
    }

    /// The scope events (enter, exit and gap markers) so far.
    pub(crate) fn events(&self) -> &[Event] {
        &self.events
    }

    /// How many samples so far.
    pub(crate) fn samples_len(&self) -> usize {
        self.samples.len()
    }

    /// The trace, both streams in timestamp order. The sorts are stable,
    /// so same-timestamp records keep their arrival order, and each runs
    /// only when some record of its stream arrived behind its
    /// predecessor: a stable sort of a sorted vector would change nothing.
    pub(crate) fn into_trace(self, node: NodeMeta, functions: Vec<FunctionDef>) -> Trace {
        let (mut events, mut samples) = (self.events, self.samples);
        if !self.events_in_order {
            events.sort_by_key(|e| e.timestamp_ns);
        }
        if !self.samples_in_order {
            samples.sort_by_key(|s| s.timestamp_ns);
        }
        Trace {
            node,
            functions,
            events,
            samples,
        }
    }
}

impl Trace {
    /// Assemble a trace from a mixed event stream (as drained from a
    /// sink): scope events and samples are separated, both sorted by
    /// timestamp (stable, so same-timestamp ordering is preserved).
    pub fn from_mixed_events(
        node: NodeMeta,
        functions: Vec<FunctionDef>,
        mixed: Vec<Event>,
    ) -> Self {
        let mut streams = MixedStreams::with_event_capacity(0);
        for e in mixed {
            streams.push(e);
        }
        streams.into_trace(node, functions)
    }

    /// Duration from first to last recorded instant, in nanoseconds.
    pub fn span_ns(&self) -> u64 {
        let lo = self
            .events
            .first()
            .map(|e| e.timestamp_ns)
            .into_iter()
            .chain(self.samples.first().map(|s| s.timestamp_ns))
            .min();
        let hi = self
            .events
            .last()
            .map(|e| e.timestamp_ns)
            .into_iter()
            .chain(self.samples.last().map(|s| s.timestamp_ns))
            .max();
        match (lo, hi) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => 0,
        }
    }

    /// Look up a function definition by id: `functions[id]` when its id
    /// matches (O(1); every table Tempest writes is indexed so), otherwise
    /// the first definition carrying `id`.
    pub fn function(&self, id: FunctionId) -> Option<&FunctionDef> {
        match self.functions.get(id.0 as usize) {
            Some(f) if f.id == id => Some(f),
            _ => self.functions.iter().find(|f| f.id == id),
        }
    }

    /// The name of function `id`, or `fn#<id>` when the symbol table
    /// lacks it.
    pub fn function_name(&self, id: FunctionId) -> String {
        self.function(id)
            .map_or_else(|| format!("fn#{}", id.0), |f| f.name.clone())
    }

    // ---- binary encoding -------------------------------------------------

    /// Exact encoded size in bytes — used to reserve the encode buffer in
    /// one allocation.
    fn encoded_len(&self) -> usize {
        let mut len = MAGIC.len() + 4 + 2 + self.node.hostname.len() + 2;
        for s in &self.node.sensors {
            len += 2 + 1 + 2 + s.label.len().min(u16::MAX as usize);
        }
        len += 4;
        for f in &self.functions {
            len += 4 + 8 + 1 + 2 + f.name.len().min(u16::MAX as usize);
        }
        len += 8 + self.events.len() * EVENT_RECORD_LEN;
        len += 8 + self.samples.len() * SAMPLE_RECORD_LEN;
        len
    }

    /// Append the binary encoding to `buf` (a reusable scratch buffer —
    /// callers that encode many traces clear and reuse one allocation).
    ///
    /// All small field writes are batched through this single in-memory
    /// buffer; the per-event/per-sample records are encoded as fixed-size
    /// byte arrays appended in one `extend_from_slice` each, so no encode
    /// path ever issues a tiny I/O write.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.reserve(self.encoded_len());
        buf.extend_from_slice(MAGIC);
        encode_node(buf, &self.node);
        encode_functions(buf, &self.functions);
        buf.extend_from_slice(&(self.events.len() as u64).to_le_bytes());
        for e in &self.events {
            // Gap markers reuse the func slot for the sensor id (tag 3).
            let (tag, payload) = match e.kind {
                EventKind::Enter { func } => (1u8, func.0),
                EventKind::Exit { func } => (2u8, func.0),
                EventKind::Gap { sensor } => (3u8, sensor.0 as u32),
                EventKind::Sample { .. } => unreachable!("samples kept separately"),
            };
            let mut rec = [0u8; EVENT_RECORD_LEN];
            rec[0] = tag;
            rec[1..5].copy_from_slice(&e.thread.0.to_le_bytes());
            rec[5..9].copy_from_slice(&payload.to_le_bytes());
            rec[9..17].copy_from_slice(&e.timestamp_ns.to_le_bytes());
            buf.extend_from_slice(&rec);
        }
        buf.extend_from_slice(&(self.samples.len() as u64).to_le_bytes());
        for s in &self.samples {
            let mut rec = [0u8; SAMPLE_RECORD_LEN];
            rec[0..2].copy_from_slice(&s.sensor.0.to_le_bytes());
            rec[2..10].copy_from_slice(&s.timestamp_ns.to_le_bytes());
            // Full f64 bits: quantisation is a *sensor* property; the
            // trace format must round-trip whatever was reported.
            rec[10..18].copy_from_slice(&s.temperature.celsius().to_bits().to_le_bytes());
            buf.extend_from_slice(&rec);
        }
    }

    /// Binary encoding as one freshly allocated byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf
    }

    /// Serialise to any writer: encode into one buffer, then a single
    /// `write_all` (no per-field writes reach the writer).
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.to_bytes())
    }

    /// Decode a trace from its complete binary encoding. Strict: any
    /// truncation or structural damage is a typed error. Use
    /// [`Trace::decode_salvage`] to recover the longest valid prefix of a
    /// damaged buffer instead.
    pub fn decode(bytes: &[u8]) -> Result<Trace, TraceError> {
        Self::decode_with(bytes, &DecodeLimits::default(), &CancelToken::default())
    }

    /// [`Trace::decode`] under explicit [`DecodeLimits`] and a
    /// [`CancelToken`]. Strict: the first limit overrun or deadline trip
    /// is a [`TraceError::Limit`].
    pub fn decode_with(
        bytes: &[u8],
        limits: &DecodeLimits,
        cancel: &CancelToken,
    ) -> Result<Trace, TraceError> {
        Self::decode_inner(bytes, false, limits, cancel).map(|(trace, _)| trace)
    }

    /// Decode as much of a damaged trace as possible.
    ///
    /// Only a missing/garbled magic prefix is fatal (there is nothing to
    /// salvage from a buffer that is not a Tempest trace). Any later
    /// truncation or corruption stops parsing at the last fully-decoded
    /// record; everything already decoded is returned along with a
    /// [`SalvageReport`] saying where parsing stopped and how much of each
    /// section survived. Non-finite sample temperatures are skipped (and
    /// counted) rather than treated as fatal.
    pub fn decode_salvage(bytes: &[u8]) -> Result<(Trace, SalvageReport), TraceError> {
        Self::decode_salvage_with(bytes, &DecodeLimits::default(), &CancelToken::default())
    }

    /// [`Trace::decode_salvage`] under explicit [`DecodeLimits`] and a
    /// [`CancelToken`]. A limit overrun or deadline trip stops decoding
    /// like truncation does: everything decoded so far is returned and the
    /// overrun is recorded in [`SalvageReport::limit`] — bounded partial
    /// results, never an abort.
    pub fn decode_salvage_with(
        bytes: &[u8],
        limits: &DecodeLimits,
        cancel: &CancelToken,
    ) -> Result<(Trace, SalvageReport), TraceError> {
        Self::decode_inner(bytes, true, limits, cancel)
    }

    /// Deserialise from any reader (reads to end, then decodes zero-copy).
    pub fn read_from<R: Read>(r: &mut R) -> Result<Trace, TraceError> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        Self::decode(&bytes)
    }

    /// [`Trace::decode_salvage`] over any reader.
    pub fn read_salvage<R: Read>(r: &mut R) -> Result<(Trace, SalvageReport), TraceError> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        Self::decode_salvage(&bytes)
    }

    fn decode_inner(
        bytes: &[u8],
        salvage: bool,
        limits: &DecodeLimits,
        cancel: &CancelToken,
    ) -> Result<(Trace, SalvageReport), TraceError> {
        let mut cur = Cursor::new(bytes);
        if cur.bytes(MAGIC.len())? != MAGIC {
            return Err(TraceError::BadMagic);
        }

        let mut trace = Trace {
            node: NodeMeta::anonymous(),
            functions: Vec::new(),
            events: Vec::new(),
            samples: Vec::new(),
        };
        let mut report = SalvageReport::default();
        let mut section = TraceSection::NodeMeta;
        let budget = limits.budget();

        // Parse into `trace` in place so that when salvage mode stops at a
        // damaged record, every record decoded before it is already kept.
        let outcome: Result<(), TraceError> = (|| {
            cancel.check("trace decode")?;
            decode_node(&mut cur, &mut trace.node, limits, &budget)?;
            section = TraceSection::Functions;
            cancel.check("trace decode")?;
            decode_functions(&mut cur, &mut trace.functions, limits, &budget, cancel)?;
            section = TraceSection::Events;
            cancel.check("trace decode")?;
            let ev_count = cur.u64()? as usize;
            report.events_declared = ev_count as u64;
            limits.check_count("events", ev_count as u64, limits.max_events)?;
            // A lying header cannot force an over-allocation: the buffer
            // length bounds how many records can actually be present, and
            // the per-allocation cap bounds the reservation regardless.
            let ev_reserve = limits.clamp_prealloc(ev_count, cur.remaining(), EVENT_RECORD_LEN);
            budget.charge("events", (ev_reserve * std::mem::size_of::<Event>()) as u64)?;
            trace.events.reserve(ev_reserve);
            for i in 0..ev_count {
                if i & 0xFFF == 0 {
                    cancel.check("trace decode")?;
                }
                let rec = cur.bytes(EVENT_RECORD_LEN)?;
                let tag = rec[0];
                let thread = ThreadId(u32::from_le_bytes(rec[1..5].try_into().unwrap()));
                let payload = u32::from_le_bytes(rec[5..9].try_into().unwrap());
                let ts = u64::from_le_bytes(rec[9..17].try_into().unwrap());
                let kind = match tag {
                    1 => EventKind::Enter {
                        func: FunctionId(payload),
                    },
                    2 => EventKind::Exit {
                        func: FunctionId(payload),
                    },
                    3 => EventKind::Gap {
                        sensor: SensorId(payload as u16),
                    },
                    _ => return Err(TraceError::Corrupt("bad event tag")),
                };
                trace.events.push(Event {
                    timestamp_ns: ts,
                    thread,
                    kind,
                });
            }
            section = TraceSection::Samples;
            cancel.check("trace decode")?;
            let sample_count = cur.u64()? as usize;
            report.samples_declared = sample_count as u64;
            limits.check_count("samples", sample_count as u64, limits.max_samples)?;
            let sm_reserve =
                limits.clamp_prealloc(sample_count, cur.remaining(), SAMPLE_RECORD_LEN);
            budget.charge(
                "samples",
                (sm_reserve * std::mem::size_of::<SensorReading>()) as u64,
            )?;
            trace.samples.reserve(sm_reserve);
            for i in 0..sample_count {
                if i & 0xFFF == 0 {
                    cancel.check("trace decode")?;
                }
                let rec = cur.bytes(SAMPLE_RECORD_LEN)?;
                let sensor = SensorId(u16::from_le_bytes(rec[0..2].try_into().unwrap()));
                let ts = u64::from_le_bytes(rec[2..10].try_into().unwrap());
                let bits = u64::from_le_bytes(rec[10..18].try_into().unwrap());
                let celsius = f64::from_bits(bits);
                if !celsius.is_finite() {
                    if salvage {
                        report.nonfinite_samples_skipped += 1;
                        continue;
                    }
                    return Err(TraceError::Corrupt("non-finite sample temperature"));
                }
                trace.samples.push(SensorReading::new(
                    sensor,
                    ts,
                    Temperature::from_celsius(celsius),
                ));
            }
            Ok(())
        })();

        if let Err(err) = outcome {
            if !salvage {
                return Err(err);
            }
            if let TraceError::Limit(e) = err {
                report.limit = Some(e);
            }
            report.truncated_in = Some(section);
        }
        report.events_salvaged = trace.events.len() as u64;
        report.samples_salvaged = trace.samples.len() as u64;
        Ok((trace, report))
    }

    /// Write to a file path (one encode buffer, one write), atomically
    /// through [`tempest_obs::publish`]: a crash mid-save never clobbers
    /// an existing good trace at `path`.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        tempest_obs::publish(path, &self.to_bytes())
    }

    /// Read from a file path (one read-to-end, then zero-copy decode).
    pub fn load(path: &Path) -> Result<Trace, TraceError> {
        Trace::decode(&std::fs::read(path)?)
    }

    /// Read from a file path, salvaging what a damaged file still holds.
    pub fn load_salvage(path: &Path) -> Result<(Trace, SalvageReport), TraceError> {
        Trace::decode_salvage(&std::fs::read(path)?)
    }

    /// Human-readable dump (debugging aid; not parsed back).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# tempest trace: node {} ({}), {} functions, {} events, {} samples\n",
            self.node.node_id,
            self.node.hostname,
            self.functions.len(),
            self.events.len(),
            self.samples.len()
        ));
        for f in &self.functions {
            out.push_str(&format!(
                "F {} {:#010x} {:?} {}\n",
                f.id.0, f.address, f.kind, f.name
            ));
        }
        for e in &self.events {
            let (tag, payload) = match e.kind {
                EventKind::Enter { func } => ('>', func.0),
                EventKind::Exit { func } => ('<', func.0),
                EventKind::Gap { sensor } => ('!', sensor.0 as u32),
                _ => continue,
            };
            out.push_str(&format!(
                "{tag} t{} f{} @{}\n",
                e.thread.0, payload, e.timestamp_ns
            ));
        }
        for s in &self.samples {
            out.push_str(&format!(
                "T {} @{} {:.3}C\n",
                s.sensor,
                s.timestamp_ns,
                s.temperature.celsius()
            ));
        }
        out
    }
}

/// Append `node`'s binary layout to `buf`: id, hostname, then the sensor
/// inventory. The trace header and the spool's node frame share it.
pub(crate) fn encode_node(buf: &mut Vec<u8>, node: &NodeMeta) {
    buf.extend_from_slice(&node.node_id.to_le_bytes());
    encode_str(buf, &node.hostname);
    buf.extend_from_slice(&(node.sensors.len() as u16).to_le_bytes());
    for s in &node.sensors {
        buf.extend_from_slice(&s.id.0.to_le_bytes());
        buf.push(encode_sensor_kind(s.kind));
        encode_str(buf, &s.label);
    }
}

/// Append a symbol table's binary layout to `buf`: the count, then id,
/// address, scope kind and name per entry. The trace's function table
/// and the spool's symbols frame share it.
pub(crate) fn encode_functions(buf: &mut Vec<u8>, functions: &[FunctionDef]) {
    buf.extend_from_slice(&(functions.len() as u32).to_le_bytes());
    for f in functions {
        buf.extend_from_slice(&f.id.0.to_le_bytes());
        buf.extend_from_slice(&f.address.to_le_bytes());
        buf.push(match f.kind {
            ScopeKind::Function => 0,
            ScopeKind::Block => 1,
        });
        encode_str(buf, &f.name);
    }
}

/// Decode [`encode_node`]'s layout from `cur` into `node`, charging each
/// sensor to `budget`. The count and string limits apply before anything
/// is materialised, and the sensors decoded before a damaged one stay in
/// `node`, so a salvage keeps them.
pub(crate) fn decode_node(
    cur: &mut Cursor<'_>,
    node: &mut NodeMeta,
    limits: &DecodeLimits,
    budget: &ResourceBudget,
) -> Result<(), TraceError> {
    node.node_id = cur.u32()?;
    node.hostname = cur.str(limits, "hostname")?;
    let count = cur.u16()? as usize;
    limits.check_count("sensors", count as u64, limits.max_sensors as u64)?;
    // An untrusted count never sizes the allocation by itself: it is
    // clamped to what the remaining bytes can hold.
    node.sensors
        .reserve(limits.clamp_prealloc(count, cur.remaining(), SENSOR_ENTRY_MIN_LEN));
    for _ in 0..count {
        let id = SensorId(cur.u16()?);
        let kind = decode_sensor_kind(cur.u8()?)?;
        let label = cur.str(limits, "sensor label")?;
        budget.charge("sensors", (label.len() + SENSOR_META_COST) as u64)?;
        node.sensors.push(SensorMeta { id, label, kind });
    }
    Ok(())
}

/// Decode [`encode_functions`]' layout from `cur` onto `out`, charging
/// each entry to `budget` and checking `cancel` every 4096 entries. Like
/// [`decode_node`], it keeps the entries decoded before a damaged one.
pub(crate) fn decode_functions(
    cur: &mut Cursor<'_>,
    out: &mut Vec<FunctionDef>,
    limits: &DecodeLimits,
    budget: &ResourceBudget,
    cancel: &CancelToken,
) -> Result<(), TraceError> {
    let count = cur.u32()? as usize;
    limits.check_count("functions", count as u64, limits.max_functions as u64)?;
    out.reserve(limits.clamp_prealloc(count, cur.remaining(), FUNCTION_ENTRY_MIN_LEN));
    for i in 0..count {
        if i & 0xFFF == 0 {
            cancel.check("trace decode")?;
        }
        let id = FunctionId(cur.u32()?);
        let address = cur.u64()?;
        let kind = match cur.u8()? {
            0 => ScopeKind::Function,
            1 => ScopeKind::Block,
            _ => return Err(TraceError::Corrupt("bad scope kind")),
        };
        let name = cur.str(limits, "function name")?;
        budget.charge("functions", (name.len() + FUNCTION_META_COST) as u64)?;
        out.push(FunctionDef {
            id,
            name,
            address,
            kind,
        });
    }
    Ok(())
}

fn encode_sensor_kind(k: SensorKind) -> u8 {
    match k {
        SensorKind::CpuCore => 0,
        SensorKind::CpuPackage => 1,
        SensorKind::Motherboard => 2,
        SensorKind::Ambient => 3,
        SensorKind::Memory => 4,
        SensorKind::Other => 5,
    }
}

fn decode_sensor_kind(b: u8) -> Result<SensorKind, TraceError> {
    Ok(match b {
        0 => SensorKind::CpuCore,
        1 => SensorKind::CpuPackage,
        2 => SensorKind::Motherboard,
        3 => SensorKind::Ambient,
        4 => SensorKind::Memory,
        5 => SensorKind::Other,
        _ => return Err(TraceError::Corrupt("bad sensor kind")),
    })
}

/// Append `s` as a `u16` length and its UTF-8 bytes, cut at `u16::MAX`.
pub(crate) fn encode_str(buf: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    buf.extend_from_slice(&(len as u16).to_le_bytes());
    buf.extend_from_slice(&bytes[..len]);
}

/// Zero-copy decode cursor over an in-memory trace image or a spool
/// frame's payload. Field reads are bounds-checked slices of the backing
/// buffer; truncation surfaces as the
/// same `TraceError::Io(UnexpectedEof)` a streaming reader would produce,
/// so strict-mode callers see identical error shapes.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        if self.remaining() < n {
            return Err(TraceError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "trace truncated mid-record",
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, TraceError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, TraceError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, TraceError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, TraceError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Decode a length-prefixed string, rejecting claims over the
    /// configured cap *before* materialising anything.
    pub(crate) fn str(
        &mut self,
        limits: &DecodeLimits,
        what: &'static str,
    ) -> Result<String, TraceError> {
        let len = self.u16()? as usize;
        limits.check_string(what, len)?;
        let bytes = self.bytes(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| TraceError::Corrupt("invalid UTF-8 string"))
    }

    /// Everything not read yet.
    pub(crate) fn rest(self) -> &'a [u8] {
        &self.buf[self.pos..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let node = NodeMeta {
            node_id: 2,
            hostname: "node2".to_string(),
            sensors: vec![
                SensorMeta {
                    id: SensorId(0),
                    label: "CPU0 die".to_string(),
                    kind: SensorKind::CpuCore,
                },
                SensorMeta {
                    id: SensorId(1),
                    label: "ambient".to_string(),
                    kind: SensorKind::Ambient,
                },
            ],
        };
        let functions = vec![
            FunctionDef {
                id: FunctionId(0),
                name: "main".to_string(),
                address: 0x400000,
                kind: ScopeKind::Function,
            },
            FunctionDef {
                id: FunctionId(1),
                name: "foo1".to_string(),
                address: 0x400010,
                kind: ScopeKind::Block,
            },
        ];
        let events = vec![
            Event::enter(100, ThreadId(0), FunctionId(0)),
            Event::enter(200, ThreadId(0), FunctionId(1)),
            Event::exit(900, ThreadId(0), FunctionId(1)),
            Event::exit(1000, ThreadId(0), FunctionId(0)),
        ];
        let samples = vec![
            SensorReading::new(SensorId(0), 250, Temperature::from_celsius(40.0)),
            SensorReading::new(SensorId(1), 250, Temperature::from_celsius(25.5)),
            SensorReading::new(SensorId(0), 500, Temperature::from_celsius(41.0)),
        ];
        Trace {
            node,
            functions,
            events,
            samples,
        }
    }

    #[test]
    fn binary_roundtrip_preserves_everything() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = Trace::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn encode_decode_reencode_is_byte_identical() {
        let t = sample_trace();
        let first = t.to_bytes();
        let back = Trace::decode(&first).unwrap();
        let second = back.to_bytes();
        assert_eq!(first, second, "decode → re-encode must be byte-identical");

        // write_to must emit exactly the encode_into image (the batched
        // writer path cannot drift from the buffer encoder).
        let mut via_writer = Vec::new();
        t.write_to(&mut via_writer).unwrap();
        assert_eq!(first, via_writer);

        // encode_into appends, so a reused scratch buffer yields the same
        // bytes after the prefix.
        let mut scratch = b"prefix".to_vec();
        t.encode_into(&mut scratch);
        assert_eq!(&scratch[6..], first.as_slice());
    }

    #[test]
    fn trace_bytes_are_pinned() {
        // Two sensors of different kinds, a function and a block scope:
        // the node and symbol layout the spool shares is covered too.
        let bytes = sample_trace().to_bytes();
        assert_eq!(bytes.len(), 226);
        assert_eq!(crate::spool::crc32(&bytes), 0x8DCC_1492);
    }

    #[test]
    fn file_roundtrip() {
        let t = sample_trace();
        let path = std::env::temp_dir().join(format!("tempest-trace-{}.bin", std::process::id()));
        t.save(&path).unwrap();
        let back = Trace::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(t, back);
    }

    #[test]
    fn save_replaces_atomically_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("tempest-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.trace");

        let first = sample_trace();
        first.save(&path).unwrap();
        let mut second = sample_trace();
        second.node.node_id = 9;
        second.save(&path).unwrap();
        assert_eq!(Trace::load(&path).unwrap(), second);
        // No temp file leaked into the directory.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name() != "x.trace")
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_save_never_clobbers_existing_trace() {
        let dir = std::env::temp_dir().join(format!("tempest-noclobber-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("good.trace");
        let good = sample_trace();
        good.save(&path).unwrap();

        // Make the final rename fail: target becomes a non-empty directory.
        let blocked = dir.join("blocked");
        std::fs::create_dir_all(blocked.join("occupied")).unwrap();
        let err = sample_trace().save(&blocked);
        assert!(err.is_err(), "rename onto a non-empty directory must fail");
        let mut left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        left.sort();
        assert_eq!(
            left,
            ["blocked", "good.trace"],
            "failed save cleans up its temp file"
        );
        // The target and the unrelated trace beside it are untouched.
        assert!(blocked.join("occupied").is_dir());
        assert_eq!(Trace::load(&path).unwrap(), good);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        sample_trace().write_to(&mut buf).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            Trace::read_from(&mut buf.as_slice()),
            Err(TraceError::BadMagic)
        ));
    }

    #[test]
    fn truncated_trace_rejected() {
        let mut buf = Vec::new();
        sample_trace().write_to(&mut buf).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(matches!(
            Trace::read_from(&mut buf.as_slice()),
            Err(TraceError::Io(_))
        ));
    }

    #[test]
    fn corrupt_event_tag_rejected() {
        let t = Trace {
            events: vec![Event::enter(1, ThreadId(0), FunctionId(0))],
            ..sample_trace()
        };
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        // The single event's tag byte is 12 (samples) + 8+8+4 bytes from
        // the end... simpler: find the last Enter tag (value 1) before the
        // event payload; events section starts right after the u64 count.
        // Locate by writing a trace with zero functions/sensors instead.
        let t2 = Trace {
            node: NodeMeta::anonymous(),
            functions: vec![],
            events: vec![Event::enter(1, ThreadId(0), FunctionId(0))],
            samples: vec![],
        };
        let mut b2 = Vec::new();
        t2.write_to(&mut b2).unwrap();
        // Layout: magic(8) node_id(4) hostname len(2)+9 sensors(2) fns(4)
        // events count(8) then tag.
        let tag_pos = 8 + 4 + 2 + "localhost".len() + 2 + 4 + 8;
        assert_eq!(b2[tag_pos], 1);
        b2[tag_pos] = 99;
        assert!(matches!(
            Trace::read_from(&mut b2.as_slice()),
            Err(TraceError::Corrupt(_))
        ));
    }

    #[test]
    fn from_mixed_events_separates_and_sorts() {
        let mixed = vec![
            Event::sample(300, SensorId(0), 41.0),
            Event::enter(100, ThreadId(0), FunctionId(0)),
            Event::sample(200, SensorId(0), 40.0),
            Event::exit(400, ThreadId(0), FunctionId(0)),
        ];
        let t = Trace::from_mixed_events(NodeMeta::anonymous(), vec![], mixed);
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.samples.len(), 2);
        assert!(t.samples[0].timestamp_ns < t.samples[1].timestamp_ns);
        assert_eq!(t.span_ns(), 300); // 100 → 400
    }

    #[test]
    fn span_of_empty_trace_is_zero() {
        let t = Trace {
            node: NodeMeta::anonymous(),
            functions: vec![],
            events: vec![],
            samples: vec![],
        };
        assert_eq!(t.span_ns(), 0);
    }

    #[test]
    fn function_lookup() {
        let t = sample_trace();
        assert_eq!(t.function(FunctionId(1)).unwrap().name, "foo1");
        assert!(t.function(FunctionId(9)).is_none());
    }

    #[test]
    fn text_dump_mentions_key_facts() {
        let txt = sample_trace().to_text();
        assert!(txt.contains("node 2"));
        assert!(txt.contains("main"));
        assert!(txt.contains("sensor1"));
        assert!(txt.contains("40.000C"));
    }

    #[test]
    fn gap_events_roundtrip() {
        let mut t = sample_trace();
        t.events.push(Event::gap(1500, SensorId(1)));
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = Trace::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(t, back);
        assert!(t.to_text().contains("! t4294967295 f1 @1500"));
    }

    #[test]
    fn salvage_of_intact_trace_is_clean() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let (back, report) = Trace::read_salvage(&mut buf.as_slice()).unwrap();
        assert_eq!(t, back);
        assert!(report.is_clean());
        assert_eq!(report.events_salvaged, t.events.len() as u64);
        assert_eq!(report.samples_salvaged, t.samples.len() as u64);
    }

    #[test]
    fn salvage_recovers_prefix_of_truncated_samples() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        buf.truncate(buf.len() - 5); // clips the final sample record
        let (back, report) = Trace::read_salvage(&mut buf.as_slice()).unwrap();
        assert_eq!(back.events, t.events, "events section was intact");
        assert_eq!(back.samples.len(), t.samples.len() - 1);
        assert_eq!(report.truncated_in, Some(TraceSection::Samples));
        assert_eq!(report.samples_lost(), 1);
        assert_eq!(report.events_lost(), 0);
    }

    #[test]
    fn salvage_recovers_prefix_of_truncated_events() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        // Events section: 4 records of 17 bytes; cut inside the third.
        let header_len = buf.len() - (4 * 17 + 8 + t.samples.len() * 18) - 8;
        buf.truncate(header_len + 8 + 2 * 17 + 9);
        let (back, report) = Trace::read_salvage(&mut buf.as_slice()).unwrap();
        assert_eq!(back.functions, t.functions);
        assert_eq!(back.events, t.events[..2]);
        assert!(back.samples.is_empty());
        assert_eq!(report.truncated_in, Some(TraceSection::Events));
        assert_eq!(report.events_declared, 4);
        assert_eq!(report.events_lost(), 2);
    }

    #[test]
    fn salvage_skips_nonfinite_samples() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        // Poison the final sample's f64 payload (last 8 bytes) with NaN.
        let n = buf.len();
        buf[n - 8..].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(matches!(
            Trace::read_from(&mut buf.as_slice()),
            Err(TraceError::Corrupt(_))
        ));
        let (back, report) = Trace::read_salvage(&mut buf.as_slice()).unwrap();
        assert_eq!(back.samples.len(), t.samples.len() - 1);
        assert_eq!(report.nonfinite_samples_skipped, 1);
        assert_eq!(report.truncated_in, None);
        assert!(!report.is_clean());
    }

    #[test]
    fn salvage_still_rejects_bad_magic() {
        let mut buf = Vec::new();
        sample_trace().write_to(&mut buf).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            Trace::read_salvage(&mut buf.as_slice()),
            Err(TraceError::BadMagic)
        ));
    }

    #[test]
    fn salvage_of_header_only_yields_empty_trace() {
        let mut buf = Vec::new();
        sample_trace().write_to(&mut buf).unwrap();
        buf.truncate(10); // magic + part of node_id
        let (back, report) = Trace::read_salvage(&mut buf.as_slice()).unwrap();
        assert!(back.events.is_empty() && back.samples.is_empty());
        assert_eq!(report.truncated_in, Some(TraceSection::NodeMeta));
    }

    /// A hostile header claiming 2^31 function-table entries: strict
    /// decode rejects it with a typed limit error (not an OOM), salvage
    /// decode returns a bounded partial trace with the overrun recorded.
    #[test]
    fn declared_2_to_31_functions_rejected_not_oomed() {
        let mut buf = Vec::new();
        // magic, node_id, hostname "h", zero sensors, fn_count = 2^31.
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&7u32.to_le_bytes());
        encode_str(&mut buf, "h");
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&(1u32 << 31).to_le_bytes());

        let limits = DecodeLimits::strict();
        let err = Trace::decode_with(&buf, &limits, &CancelToken::default()).unwrap_err();
        match err {
            TraceError::Limit(e) => {
                assert_eq!(e.kind, crate::limits::LimitKind::Cardinality);
                assert_eq!(e.observed, 1 << 31);
            }
            other => panic!("expected Limit, got {other:?}"),
        }

        let (trace, report) =
            Trace::decode_salvage_with(&buf, &limits, &CancelToken::default()).unwrap();
        assert_eq!(trace.node.node_id, 7, "prefix before the overrun kept");
        assert!(trace.functions.is_empty());
        let hit = report.limit.expect("overrun recorded in salvage report");
        assert_eq!(hit.what, "functions");
        assert!(!report.is_clean());
    }

    #[test]
    fn oversized_sensor_inventory_rejected_under_strict_limits() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&0u32.to_le_bytes());
        encode_str(&mut buf, "h");
        buf.extend_from_slice(&u16::MAX.to_le_bytes()); // 65535 declared sensors
        let err =
            Trace::decode_with(&buf, &DecodeLimits::strict(), &CancelToken::default()).unwrap_err();
        assert!(matches!(err, TraceError::Limit(_)), "{err:?}");
        // The same trace passes the generous defaults (counts bounded by
        // actual bytes, so it just truncates as before).
        let (_, report) = Trace::decode_salvage(&buf).unwrap();
        assert!(report.limit.is_none());
    }

    #[test]
    fn expired_deadline_yields_partial_salvage() {
        let t = sample_trace();
        let bytes = t.to_bytes();
        let cancel = CancelToken::with_deadline(std::time::Duration::from_secs(0));
        let (_, report) =
            Trace::decode_salvage_with(&bytes, &DecodeLimits::default(), &cancel).unwrap();
        let hit = report.limit.expect("deadline recorded");
        assert_eq!(hit.kind, crate::limits::LimitKind::Deadline);
        // Strict mode surfaces the same trip as a hard error.
        assert!(matches!(
            Trace::decode_with(&bytes, &DecodeLimits::default(), &cancel),
            Err(TraceError::Limit(_))
        ));
    }

    #[test]
    fn tiny_byte_budget_stops_decode_without_abort() {
        let spec = crate::synth::TraceSpec {
            events: 4_000,
            ..Default::default()
        };
        let t = crate::synth::TraceGenerator::new(spec).generate(0);
        let bytes = t.to_bytes();
        let limits = DecodeLimits {
            budget_bytes: 1_024,
            ..DecodeLimits::default()
        };
        let (partial, report) =
            Trace::decode_salvage_with(&bytes, &limits, &CancelToken::default()).unwrap();
        let hit = report.limit.expect("budget trip recorded");
        assert_eq!(hit.kind, crate::limits::LimitKind::ByteBudget);
        assert!(
            partial.events.len() < t.events.len(),
            "decode stopped early under budget"
        );
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace {
            node: NodeMeta::anonymous(),
            functions: vec![],
            events: vec![],
            samples: vec![],
        };
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        assert_eq!(Trace::read_from(&mut buf.as_slice()).unwrap(), t);
    }
}
