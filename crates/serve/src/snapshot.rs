//! The stats frame's one schema.
//!
//! Each section of the stats document is declared once below with
//! `stats_schema!`: the macro emits the struct, its JSON encoder and its
//! decoder from one field list, and the JSON key is the Rust field name,
//! so no other code in this crate spells a key. The server's collector
//! ([`crate::stats::collect`]) fills in a [`StatsSnapshot`] and
//! [`StatsSnapshot::render`]s it; clients (`loadgen --verify`,
//! `memsync-top`, the loopback tests, operators' tooling) read the same
//! type back from [`StatsSnapshot::decode`]. The raw document stays
//! reachable through [`crate::Client::stats_raw`] for humans and log
//! pipelines.
//!
//! Compatibility rules, set by the leaf types:
//!
//! * unknown keys and whole unknown sections are skipped (a newer server
//!   may add them);
//! * an `Option` field leaves its key out when `None`, and an absent key
//!   reads as `None` (older servers render no `spans`, `fib` or
//!   `frontend` section);
//! * an unknown backend name reads as `None`, not as an error;
//! * a field declared `= value` reads `value` when its key is absent
//!   (`restart_carryover`, which pre-supervisor servers lack).

use crate::backend::BackendKind;
use memsync_trace::{Json, Summary};

/// Decode failures: the document did not parse, or a required field was
/// missing or mistyped (the message names the innermost such key).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DecodeStatsError(pub String);

impl std::fmt::Display for DecodeStatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad stats frame: {}", self.0)
    }
}

impl std::error::Error for DecodeStatsError {}

/// Names the key a leaf failure sat under; errors from deeper down
/// already name their own key.
fn at_key(e: DecodeStatsError, key: &str) -> DecodeStatsError {
    if e.0.is_empty() {
        DecodeStatsError(format!("missing or mistyped field {key:?}"))
    } else {
        e
    }
}

/// A present value, or a keyless error for the caller to name.
fn present<T>(value: Option<T>) -> Result<T, DecodeStatsError> {
    value.ok_or_else(DecodeStatsError::default)
}

/// A value carried under one key of the stats document.
trait Field: Sized {
    /// The value's JSON, or `None` to leave the key out.
    fn encode(&self) -> Option<Json>;
    /// Reads the value back; `json` is `None` when the key is absent.
    fn decode(json: Option<&Json>) -> Result<Self, DecodeStatsError>;
}

macro_rules! leaf_fields {
    ($($ty:ty: $variant:ident, $read:expr;)*) => {$(
        impl Field for $ty {
            fn encode(&self) -> Option<Json> {
                Some(Json::$variant(self.to_owned()))
            }
            fn decode(json: Option<&Json>) -> Result<$ty, DecodeStatsError> {
                present(json.and_then($read))
            }
        }
    )*};
}

leaf_fields! {
    u64: UInt, Json::as_u64;
    f64: Num, Json::as_f64;
    bool: Bool, Json::as_bool;
    String: Str, |j: &Json| j.as_str().map(str::to_owned);
}

impl<T: Field> Field for Option<T> {
    fn encode(&self) -> Option<Json> {
        self.as_ref().and_then(T::encode)
    }
    fn decode(json: Option<&Json>) -> Result<Option<T>, DecodeStatsError> {
        json.map(|j| T::decode(Some(j))).transpose()
    }
}

/// An array of row sections; an absent key reads as no rows.
impl<T: Field> Field for Vec<T> {
    fn encode(&self) -> Option<Json> {
        Some(Json::Arr(self.iter().filter_map(T::encode).collect()))
    }
    fn decode(json: Option<&Json>) -> Result<Vec<T>, DecodeStatsError> {
        match json {
            None => Ok(Vec::new()),
            Some(j) => present(j.as_arr())?
                .iter()
                .map(|row| T::decode(Some(row)))
                .collect(),
        }
    }
}

/// The lenient backend name: an unknown name means a newer server, and
/// the typed counters still decode, so it reads as `None` instead of
/// refusing the frame.
impl Field for Option<BackendKind> {
    fn encode(&self) -> Option<Json> {
        self.map(|kind| Json::Str(kind.to_string()))
    }
    fn decode(json: Option<&Json>) -> Result<Option<BackendKind>, DecodeStatsError> {
        Ok(json
            .and_then(Json::as_str)
            .and_then(|name| name.parse().ok()))
    }
}

/// The `stages` object, keyed by stage name in pipeline order; left out
/// when nothing was traced.
impl Field for Vec<StageSummarySnapshot> {
    fn encode(&self) -> Option<Json> {
        let stages = self
            .iter()
            .filter_map(|s| Some((s.stage.clone(), s.summary().encode()?)));
        (!self.is_empty()).then(|| Json::Obj(stages.collect()))
    }
    fn decode(json: Option<&Json>) -> Result<Vec<StageSummarySnapshot>, DecodeStatsError> {
        let stages = match json {
            None => return Ok(Vec::new()),
            Some(Json::Obj(stages)) => stages,
            Some(_) => return Err(DecodeStatsError::default()),
        };
        stages
            .iter()
            .map(|(stage, s)| Ok(StageSummarySnapshot::new(stage, Summary::decode(Some(s))?)))
            .collect()
    }
}

/// Declares a stats section: the struct, plus its encoder and decoder,
/// from one field list. A field declared `= value` reads `value` when its
/// key is absent. `impl Name { .. }` adds the codec to a type declared
/// elsewhere.
macro_rules! stats_schema {
    ($(#[$meta:meta])* pub struct $name:ident {
        $($(#[$doc:meta])* pub $field:ident: $ty:ty $(= $absent:expr)?,)*
    }) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$doc])* pub $field: $ty,)*
        }
        stats_schema!(impl $name { $($field: $ty $(= $absent)?,)* });
    };
    (impl $name:ident { $($field:ident: $ty:ty $(= $absent:expr)?,)* }) => {
        impl Field for $name {
            fn encode(&self) -> Option<Json> {
                let mut obj = Json::obj();
                $(if let Some(v) = self.$field.encode() {
                    obj.set(stringify!($field), v);
                })*
                Some(obj)
            }
            fn decode(json: Option<&Json>) -> Result<$name, DecodeStatsError> {
                let json = present(json)?;
                Ok($name {$(
                    $field: match json.get(stringify!($field)) {
                        $(None => $absent,)?
                        v => Field::decode(v).map_err(|e| at_key(e, stringify!($field)))?,
                    },
                )*})
            }
        }
    };
}

stats_schema!(impl Summary {
    count: u64,
    min: u64,
    max: u64,
    mean: f64,
    p50: u64,
    p90: u64,
    p99: u64,
});

stats_schema! {
    /// One row of the `per_shard` array.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct ShardSnapshot {
        /// Shard index.
        pub shard: u64,
        /// Packets this shard executed.
        pub packets: u64,
        /// Packets the oracle classified as forwarded.
        pub forwarded: u64,
        /// Packets dropped (TTL expiry or no route).
        pub dropped: u64,
        /// Verify-mode mismatches.
        pub mismatches: u64,
        /// Guarded-location overwrites observed by this shard's backend.
        pub lost_updates: u64,
        /// Batch activations.
        pub batches: u64,
        /// Simulator cycles consumed (0 under the fast backend).
        pub sim_cycles: u64,
        /// Highest queue depth ever observed at push time.
        pub queue_depth_highwater: u64,
        /// Jobs currently queued.
        pub queue_depth: u64,
        /// Packet total latched at this shard's most recent supervisor
        /// restart (0 while the original incarnation lives). Nonzero proves
        /// pre-restart traffic still counts in the totals above.
        pub restart_carryover: u64 = 0,
        /// Packets per batch activation; absent before the first batch.
        pub batch_size: Option<Summary>,
        /// Enqueue-to-reply latency per job, in microseconds; absent
        /// before the first batch.
        pub service_latency_us: Option<Summary>,
        /// This shard's traced stage summaries; empty when tracing is off.
        pub stages: Vec<StageSummarySnapshot>,
    }
}

/// One traced stage's latency summary from a `stages` object.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageSummarySnapshot {
    /// Stage name (`decode_ns`, `queue_ns`, `coalesce_ns`, `execute_ns`,
    /// `egress_ns`, `write_ns`).
    pub stage: String,
    /// Samples recorded.
    pub count: u64,
    /// Smallest observed value (nanoseconds).
    pub min: u64,
    /// Largest observed value (nanoseconds).
    pub max: u64,
    /// Mean (nanoseconds).
    pub mean: f64,
    /// Median, as a bucket upper bound clamped to the observed range.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl StageSummarySnapshot {
    /// Names a stage's histogram summary.
    pub fn new(stage: &str, s: Summary) -> StageSummarySnapshot {
        StageSummarySnapshot {
            stage: stage.to_owned(),
            count: s.count,
            min: s.min,
            max: s.max,
            mean: s.mean,
            p50: s.p50,
            p90: s.p90,
            p99: s.p99,
        }
    }

    /// The summary without its stage name.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            min: self.min,
            max: self.max,
            mean: self.mean,
            p50: self.p50,
            p90: self.p90,
            p99: self.p99,
        }
    }
}

stats_schema! {
    /// One row of `spans.rings`: a shard's span-ring occupancy.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SpanRingSnapshot {
        /// Shard index.
        pub shard: u64,
        /// Spans finished against this shard.
        pub seen: u64,
        /// Spans held in the sampled recent ring.
        pub recent: u64,
        /// Spans held in the always-keep slow ring.
        pub slow: u64,
    }
}

stats_schema! {
    /// The `spans` section: request-tracing status and ring totals.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct SpansSnapshot {
        /// Whether request tracing is on.
        pub enabled: bool,
        /// Recent-ring sampling stride.
        pub sample_every: u64,
        /// Slow-span threshold in nanoseconds.
        pub slow_ns: u64,
        /// Spans finished so far, summed over shards.
        pub seen: u64,
        /// JSONL span lines exported so far.
        pub exported: u64,
        /// Per-shard ring occupancy.
        pub rings: Vec<SpanRingSnapshot>,
    }
}

stats_schema! {
    /// The `fib.swap_latency_us` object: publish-to-barrier latency of
    /// recent table swaps, in microseconds.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SwapLatencySnapshot {
        /// Swaps measured since the server started.
        pub count: u64,
        /// Median over the recent-swap ring.
        pub p50: u64,
        /// 99th percentile over the recent-swap ring.
        pub p99: u64,
        /// Maximum over the recent-swap ring.
        pub max: u64,
    }
}

stats_schema! {
    /// The `fib` section: the control plane's generation-swapped route
    /// table. `generation`/`retired` together audit the RCU retirement
    /// property — in steady state `retired == generation - 1`, proving no
    /// shard still references a pre-swap table.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct FibSnapshot {
        /// Current table generation (starts at 1).
        pub generation: u64,
        /// Routes in the current table.
        pub routes: u64,
        /// Table swaps published so far.
        pub swaps: u64,
        /// Highest generation every shard has provably moved past.
        pub retired: u64,
        /// Swap-latency percentiles; absent before the first swap.
        pub swap_latency_us: Option<SwapLatencySnapshot>,
    }
}

stats_schema! {
    /// The `frontend` section: connection-plane counters from whichever
    /// frontend (`threads` or `reactor`) is serving.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct FrontendSnapshot {
        /// Frontend name (`threads` or `reactor`).
        pub kind: String,
        /// Connections currently open.
        pub conns_open: u64,
        /// Highest concurrently-open connection count ever observed.
        pub conns_peak: u64,
        /// Connections refused over the connection cap.
        pub conn_rejects: u64,
        /// Accept-loop pauses forced by fd or thread exhaustion.
        pub accept_pauses: u64,
        /// Times a frontend stopped reading a connection for backpressure.
        pub read_pauses: u64,
        /// Submits deferred on a full shard queue (reactor only).
        pub deferred_submits: u64,
        /// Deferred submits currently parked.
        pub deferred_now: u64,
        /// Largest per-connection egress queue ever observed, in bytes.
        pub egress_highwater_bytes: u64,
    }
}

stats_schema! {
    /// The merged stats frame.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct StatsSnapshot {
        /// Shard count.
        pub shards: u64,
        /// The forwarding backend serving this instance (`None`: a name
        /// this client does not know).
        pub backend: Option<BackendKind>,
        /// Server uptime in seconds.
        pub uptime_secs: f64,
        /// Whether a drain is in progress (new submits refused).
        pub draining: bool,
        /// Shards restarted by the supervisor so far.
        pub shard_restarts: u64,
        /// Summed per-shard restart carryover (see
        /// [`ShardSnapshot::restart_carryover`]).
        pub restart_carryover: u64 = 0,
        /// Submit batches accepted.
        pub accepted: u64,
        /// Submit batches refused with `Busy`.
        pub busy: u64,
        /// Submits that failed after acceptance.
        pub errors: u64,
        /// Total packets executed.
        pub packets: u64,
        /// Packets forwarded.
        pub forwarded: u64,
        /// Packets dropped.
        pub dropped: u64,
        /// Verify-mode mismatches.
        pub mismatches: u64,
        /// Guarded-location overwrites across every shard (must be 0).
        pub lost_updates: u64,
        /// Batch activations across every shard.
        pub batches: u64,
        /// Simulator cycles across every shard.
        pub sim_cycles: u64,
        /// Sustained packets/sec since the server started.
        pub packets_per_sec: f64,
        /// Packets per batch activation, over every shard; absent before
        /// the first batch.
        pub batch_size: Option<Summary>,
        /// Enqueue-to-reply latency per job in microseconds, over every
        /// shard; absent before the first batch.
        pub service_latency_us: Option<Summary>,
        /// Traced stage latency summaries, in pipeline order. Empty when
        /// tracing is off (the `stages` object is absent).
        pub stages: Vec<StageSummarySnapshot>,
        /// Request-tracing status (absent from documents of pre-tracing
        /// servers).
        pub spans: Option<SpansSnapshot>,
        /// Route-table control-plane section (absent from documents of
        /// pre-control-plane servers).
        pub fib: Option<FibSnapshot>,
        /// Connection-plane counters (absent from documents of
        /// pre-frontend servers).
        pub frontend: Option<FrontendSnapshot>,
        /// Per-shard breakdown.
        pub per_shard: Vec<ShardSnapshot>,
    }
}

impl StatsSnapshot {
    /// Decodes a stats JSON document.
    ///
    /// # Errors
    ///
    /// Fails on JSON syntax errors and on missing or mistyped required
    /// fields. Unknown fields are ignored (new servers may add them).
    pub fn decode(doc: &str) -> Result<StatsSnapshot, DecodeStatsError> {
        let json = Json::parse(doc).map_err(|e| DecodeStatsError(e.to_string()))?;
        <StatsSnapshot as Field>::decode(Some(&json))
    }

    /// Renders the stats document, the inverse of [`StatsSnapshot::decode`].
    pub fn render(&self) -> String {
        self.encode().map(|doc| doc.render()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::tests::{full_document, full_snapshot};
    use memsync_trace::Pcg32;

    #[test]
    fn snapshot_rejects_malformed_and_incomplete_documents() {
        assert!(StatsSnapshot::decode("{not json").is_err());
        let e = StatsSnapshot::decode("{\"shards\": 2}").unwrap_err();
        assert!(e.to_string().contains("uptime_secs"), "{e}");
        let doc = full_document().replacen("\"p99\":12", "\"p99\":\"12\"", 1);
        let e = StatsSnapshot::decode(&doc).unwrap_err();
        assert!(e.0.contains("\"p99\""), "a nested field is named: {e}");
        assert!(StatsSnapshot::decode("[1]").is_err(), "not an object");
    }

    #[test]
    fn decode_skips_unknown_stats_sections_from_newer_servers() {
        // Forward compat: a newer server may add whole sections (scalar,
        // object, or array shaped) this decoder has never heard of; they
        // must be skipped, not refused, and the known fields still land.
        let doc = full_document();
        let patched = doc.replacen(
            "\"shards\":",
            "\"xyzzy_section\":{\"a\":1,\"b\":[2,{\"c\":3}]},\
             \"xyzzy_count\":9,\"xyzzy_list\":[1,2,3],\"shards\":",
            1,
        );
        assert_ne!(doc, patched, "patch applied");
        let snap = StatsSnapshot::decode(&patched).expect("unknown sections skipped");
        assert_eq!(snap, StatsSnapshot::decode(&doc).unwrap());
        // Unknown keys inside a known section are skipped too.
        let nested = doc.replacen("\"generation\":", "\"epoch_era\":4,\"generation\":", 1);
        let snap = StatsSnapshot::decode(&nested).expect("unknown nested field skipped");
        assert_eq!(snap.fib.unwrap().generation, 2);
    }

    #[test]
    fn decode_tolerates_documents_from_older_servers_missing_new_sections() {
        // Backward compat: a pre-control-plane server renders no fib
        // section, a pre-tracing one no spans/frontend, and a
        // pre-supervisor one no restart_carryover; the decode must yield
        // None (or 0), not an error.
        let mut old = full_snapshot();
        old.spans = None;
        old.fib = None;
        old.frontend = None;
        let doc = old.render();
        assert!(!doc.contains("\"fib\""), "fixture really lacks fib: {doc}");
        let snap = StatsSnapshot::decode(&doc).expect("old-server document decodes");
        assert_eq!(snap.fib, None);
        assert_eq!(snap.spans, None);
        assert_eq!(snap.frontend, None);
        assert_eq!(snap.forwarded, 15);

        let doc = full_document()
            .replace("\"restart_carryover\":3,", "")
            .replace("\"restart_carryover\":0,", "");
        assert!(!doc.contains("restart_carryover"), "{doc}");
        let snap = StatsSnapshot::decode(&doc).expect("decodes without carryover");
        assert_eq!(snap.restart_carryover, 0);
        assert!(snap.per_shard.iter().all(|s| s.restart_carryover == 0));
    }

    #[test]
    fn unknown_backend_names_do_not_refuse_the_frame() {
        // A newer server with a backend this client does not know about
        // still yields typed counters.
        let doc = full_document();
        for name in ["\"quantum\"", "7"] {
            let snap = StatsSnapshot::decode(&doc.replacen("\"fast\"", name, 1)).expect("decodes");
            assert_eq!(snap.backend, None);
            assert_eq!(snap.packets, 21);
        }
    }

    #[test]
    fn mutated_and_truncated_documents_decode_or_fail_typed() {
        // Seeded fuzz over the golden document: byte flips, insertions,
        // deletions, splices and truncations. The decoder must never
        // panic; every failure is a DecodeStatsError with a reason.
        const ALPHABET: &[u8] = b"{}[]\":,-.0123456789eE+ truefalsn\\xyz";
        let doc = full_document().into_bytes();
        let mut rng = Pcg32::seed_from_u64(0x5747_5f46_555a);
        let (mut decoded, mut refused) = (0u32, 0u32);
        for _ in 0..100_000 {
            let mut bytes = doc.clone();
            for _ in 0..rng.gen_range_usize(1..4) {
                let at = rng.gen_range_usize(0..bytes.len().max(1));
                let byte = ALPHABET[rng.gen_range_usize(0..ALPHABET.len())];
                match rng.gen_range_u32(0..5) {
                    0 if !bytes.is_empty() => bytes[at] = byte,
                    1 => bytes.insert(at.min(bytes.len()), byte),
                    2 if !bytes.is_empty() => {
                        bytes.remove(at);
                    }
                    3 => {
                        let from = rng.gen_range_usize(0..doc.len());
                        let len = rng.gen_range_usize(0..64).min(doc.len() - from);
                        let splice = doc[from..from + len].to_vec();
                        bytes.splice(at.min(bytes.len())..at.min(bytes.len()), splice);
                    }
                    _ => bytes.truncate(at),
                }
            }
            let text = String::from_utf8(bytes).expect("ASCII mutations stay UTF-8");
            match StatsSnapshot::decode(&text) {
                Ok(_) => decoded += 1,
                Err(e) => {
                    assert!(!e.0.is_empty(), "{text}");
                    refused += 1;
                }
            }
        }
        assert!(
            decoded > 1000 && refused > 1000,
            "{decoded} ok, {refused} refused"
        );
    }
}
