//! Trace events and their JSONL wire format.
//!
//! Each event serializes to one line of JSON; the parser here is a minimal
//! hand-rolled reader for exactly the objects this crate writes (the crate
//! is dependency-free by policy, so no serde). Non-finite floats serialize
//! as `null` and parse back as `f64::NAN`.

use crate::trace::{fmt_hex16, parse_hex16, TraceCtx};

/// One trace record.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A timed region: name, duration in microseconds, plus free-form
    /// numeric fields attached by the instrumented code.
    Span {
        /// Span name, e.g. `"hosking.generate"`.
        name: String,
        /// Start time, microseconds since the process epoch
        /// ([`crate::clock::now_us`]). 0 in traces from before the
        /// profiling format (the parser defaults it).
        start_us: u64,
        /// Wall-clock duration in microseconds (monotonic clock).
        dur_us: u64,
        /// Ordinal of the emitting thread ([`crate::clock::thread_ordinal`]);
        /// spans only nest within a thread.
        tid: u64,
        /// Causal trace context ([`TraceCtx::NONE`] for untraced spans).
        /// Ids are 64-bit and would not survive the f64 `fields` channel,
        /// so they serialize as dedicated 16-digit hex string keys
        /// (`"trace"`, `"span"`, `"parent"`), emitted only when traced;
        /// the parser defaults absent keys to `NONE`.
        ctx: TraceCtx,
        /// Extra numeric attributes.
        fields: Vec<(String, f64)>,
    },
    /// An instantaneous observation (no duration).
    Point {
        /// Point name, e.g. `"pipeline.iteration"`.
        name: String,
        /// Numeric attributes.
        fields: Vec<(String, f64)>,
    },
    /// A flight-recorder window: a full registry snapshot flushed
    /// periodically (driven by work counts, not wall clock), turning one
    /// trace into a replayable metric time series.
    Window {
        /// Monotone window ordinal within the run (0-based).
        seq: u64,
        /// The registry state at flush time; labeled series appear under
        /// their rendered `name{k="v",...}` keys.
        snapshot: crate::metrics::Snapshot,
    },
    /// A fired alert rule (see [`crate::alerts`]): which rule breached, on
    /// which series, the observed value against its threshold, and the
    /// flight-recorder window ordinal the breach completed in.
    Alert {
        /// Rule name from the DESIGN §7c alert table, e.g. `"hurst-band"`.
        rule: String,
        /// `"warning"` or `"critical"`.
        severity: String,
        /// The breached series, e.g. `"serve.chunk_us"` or
        /// `"session-3.mavar_hurst"`.
        series: String,
        /// Observed value at fire time.
        observed: f64,
        /// The threshold (for band rules: the violated edge).
        threshold: f64,
        /// Flight-recorder window ordinal.
        window: u64,
    },
}

impl Event {
    /// The event's name regardless of variant (`"window"` for windows, the
    /// rule name for alerts).
    pub fn name(&self) -> &str {
        match self {
            Event::Span { name, .. } | Event::Point { name, .. } => name,
            Event::Window { .. } => "window",
            Event::Alert { rule, .. } => rule,
        }
    }

    /// The event's fields regardless of variant (empty for windows and
    /// alerts).
    pub fn fields(&self) -> &[(String, f64)] {
        match self {
            Event::Span { fields, .. } | Event::Point { fields, .. } => fields,
            Event::Window { .. } | Event::Alert { .. } => &[],
        }
    }

    /// Look up a field value by key.
    pub fn field(&self, key: &str) -> Option<f64> {
        self.fields()
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
    }

    /// Serialize to a single JSON line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64);
        match self {
            Event::Span {
                name,
                start_us,
                dur_us,
                tid,
                ctx,
                fields,
            } => {
                out.push_str("{\"t\":\"span\",\"name\":");
                push_json_string(&mut out, name);
                out.push_str(",\"start_us\":");
                out.push_str(&start_us.to_string());
                out.push_str(",\"dur_us\":");
                out.push_str(&dur_us.to_string());
                out.push_str(",\"tid\":");
                out.push_str(&tid.to_string());
                if !ctx.is_none() {
                    out.push_str(",\"trace\":");
                    push_json_string(&mut out, &fmt_hex16(ctx.trace_id));
                    out.push_str(",\"span\":");
                    push_json_string(&mut out, &fmt_hex16(ctx.span_id));
                    out.push_str(",\"parent\":");
                    push_json_string(&mut out, &fmt_hex16(ctx.parent));
                }
                push_fields(&mut out, fields);
            }
            Event::Point { name, fields } => {
                out.push_str("{\"t\":\"point\",\"name\":");
                push_json_string(&mut out, name);
                push_fields(&mut out, fields);
            }
            Event::Window { seq, snapshot } => {
                out.push_str("{\"t\":\"window\",\"seq\":");
                out.push_str(&seq.to_string());
                out.push_str(",\"counters\":{");
                for (i, (name, v)) in snapshot.counters.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_string(&mut out, name);
                    out.push(':');
                    out.push_str(&v.to_string());
                }
                out.push_str("},\"gauges\":{");
                for (i, (name, v)) in snapshot.gauges.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_string(&mut out, name);
                    out.push(':');
                    push_json_number(&mut out, *v);
                }
                out.push_str("},\"histograms\":{");
                for (i, (name, h)) in snapshot.histograms.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_string(&mut out, name);
                    out.push_str(":{\"count\":");
                    out.push_str(&h.count.to_string());
                    out.push_str(",\"sum\":");
                    out.push_str(&h.sum.to_string());
                    out.push_str(",\"buckets\":[");
                    for (j, (lo, n)) in h.buckets.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push('[');
                        out.push_str(&lo.to_string());
                        out.push(',');
                        out.push_str(&n.to_string());
                        out.push(']');
                    }
                    out.push_str("]}");
                }
                out.push('}');
            }
            Event::Alert {
                rule,
                severity,
                series,
                observed,
                threshold,
                window,
            } => {
                out.push_str("{\"t\":\"alert\",\"rule\":");
                push_json_string(&mut out, rule);
                out.push_str(",\"severity\":");
                push_json_string(&mut out, severity);
                out.push_str(",\"series\":");
                push_json_string(&mut out, series);
                out.push_str(",\"observed\":");
                push_json_number(&mut out, *observed);
                out.push_str(",\"threshold\":");
                push_json_number(&mut out, *threshold);
                out.push_str(",\"window\":");
                out.push_str(&window.to_string());
            }
        }
        out.push('}');
        out
    }

    /// Parse one JSONL line produced by [`Event::to_jsonl`]. Returns `None`
    /// for malformed input or JSON that is not an event object.
    pub fn parse(line: &str) -> Option<Event> {
        let value = parse_json(line)?;
        let obj = value.as_object()?;
        let kind = obj.get("t")?.as_str()?;
        if kind == "window" {
            return Self::parse_window(obj);
        }
        if kind == "alert" {
            return Some(Event::Alert {
                rule: obj.get("rule")?.as_str()?.to_string(),
                severity: obj.get("severity")?.as_str()?.to_string(),
                series: obj.get("series")?.as_str()?.to_string(),
                observed: obj.get("observed")?.as_f64()?,
                threshold: obj.get("threshold")?.as_f64()?,
                window: obj.get("window")?.as_f64()? as u64,
            });
        }
        let name = obj.get("name")?.as_str()?.to_string();
        let fields = match obj.get("fields") {
            Some(v) => v
                .as_object()?
                .entries
                .iter()
                .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
                .collect(),
            None => Vec::new(),
        };
        match kind {
            "span" => {
                let dur = obj.get("dur_us")?.as_f64()?;
                // start_us / tid are absent in pre-profiling traces.
                let get_u64 = |key: &str| obj.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
                // Trace keys are absent on untraced spans (and in all
                // pre-tracing traces): default to NONE.
                let get_id = |key: &str| obj.get(key).and_then(Json::as_str).and_then(parse_hex16);
                let ctx = match get_id("trace") {
                    Some(trace_id) => TraceCtx {
                        trace_id,
                        span_id: get_id("span").unwrap_or(0),
                        parent: get_id("parent").unwrap_or(0),
                    },
                    None => TraceCtx::NONE,
                };
                Some(Event::Span {
                    name,
                    start_us: get_u64("start_us"),
                    dur_us: dur as u64,
                    tid: get_u64("tid"),
                    ctx,
                    fields,
                })
            }
            "point" => Some(Event::Point { name, fields }),
            _ => None,
        }
    }

    fn parse_window(obj: &JsonObj) -> Option<Event> {
        use crate::metrics::{HistogramSnapshot, Snapshot};
        let seq = obj.get("seq")?.as_f64()? as u64;
        let mut snapshot = Snapshot::default();
        for (name, v) in &obj.get("counters")?.as_object()?.entries {
            snapshot.counters.push((name.clone(), v.as_f64()? as u64));
        }
        for (name, v) in &obj.get("gauges")?.as_object()?.entries {
            snapshot.gauges.push((name.clone(), v.as_f64()?));
        }
        for (name, v) in &obj.get("histograms")?.as_object()?.entries {
            let h = v.as_object()?;
            let mut buckets = Vec::new();
            for pair in h.get("buckets")?.as_array()? {
                let pair = pair.as_array()?;
                if pair.len() != 2 {
                    return None;
                }
                buckets.push((pair[0].as_f64()? as u64, pair[1].as_f64()? as u64));
            }
            snapshot.histograms.push((
                name.clone(),
                HistogramSnapshot {
                    count: h.get("count")?.as_f64()? as u64,
                    sum: h.get("sum")?.as_f64()? as u64,
                    buckets,
                },
            ));
        }
        Some(Event::Window { seq, snapshot })
    }
}

fn push_fields(out: &mut String, fields: &[(String, f64)]) {
    if fields.is_empty() {
        return;
    }
    out.push_str(",\"fields\":{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(out, k);
        out.push(':');
        push_json_number(out, *v);
    }
    out.push('}');
}

/// Append `s` as a JSON string literal (quotes + escapes).
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append `v` as a JSON number (`null` for non-finite values).
pub fn push_json_number(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's shortest-round-trip Display keeps serialize → parse exact.
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// Minimal JSON value for the parser. Public so downstream tooling (the
/// xtask bench-compare gate, the profiler) can read the JSON files this
/// workspace writes without taking a serde dependency.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null` (numeric readers see it as NaN).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An object, insertion-ordered.
    Obj(JsonObj),
    /// An array.
    Arr(Vec<Json>),
}

/// An insertion-ordered JSON object.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct JsonObj {
    /// Key → value pairs in document order.
    pub entries: Vec<(String, Json)>,
}

impl JsonObj {
    /// First value stored under `key`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

impl Json {
    /// Numeric view: numbers as themselves, `null` as NaN.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Object view.
    pub fn as_object(&self) -> Option<&JsonObj> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse a complete JSON document; `None` on any syntax error or trailing
/// garbage.
pub fn parse_json(input: &str) -> Option<Json> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos == p.bytes.len() {
        Some(v)
    } else {
        None
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn literal(&mut self, word: &str) -> Option<()> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Some(())
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<Json> {
        self.skip_ws();
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string().map(Json::Str),
            b't' => self.literal("true").map(|_| Json::Bool(true)),
            b'f' => self.literal("false").map(|_| Json::Bool(false)),
            b'n' => self.literal("null").map(|_| Json::Null),
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Option<Json> {
        self.eat(b'{')?;
        let mut obj = JsonObj::default();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Some(Json::Obj(obj));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            obj.entries.push((key, val));
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Some(Json::Obj(obj));
                }
                _ => return None,
            }
        }
    }

    fn array(&mut self) -> Option<Json> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Some(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Some(Json::Arr(items));
                }
                _ => return None,
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5)?;
                            let s = std::str::from_utf8(hex).ok()?;
                            let code = u32::from_str_radix(s, 16).ok()?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                _ => {
                    // Consume one UTF-8 scalar (the input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).ok()?;
                    let c = rest.chars().next()?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        s.parse::<f64>().ok().map(Json::Num)
    }
}
