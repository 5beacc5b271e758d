//! Versioned, hash-sealed state snapshots.
//!
//! Every durable piece of federation state — [`crate::SchedulerCore`],
//! [`crate::queue::MachineQueue`], [`crate::IdCompactor`],
//! [`crate::Gateway`] — captures itself into a [`Snapshot`]: a wire
//! envelope carrying a format `version`, a `state_hash` sealed over the
//! payload, an optional `component` tag, the payload [`Value`] tree
//! itself, and the sealed [`Page`]s of the component's append-only
//! history (none for every component but the scheduler core).
//!
//! Four properties make the envelope production-grade:
//!
//! * **Versioned.** [`SNAPSHOT_VERSION`] stamps every snapshot.
//!   *Decoding* never fails on an unknown version (a newer writer's
//!   data still parses), but [`Snapshot::verify`] rejects it with
//!   [`SnapshotError::UnsupportedVersion`] before any state is
//!   restored from it. This build writes version 2 and reads versions
//!   1 and 2: version 2 added pages, so a version-1 capture is simply
//!   one without them. A build that reads only version 1 reports a
//!   paged capture as unsupported instead of as a hash mismatch.
//! * **Hash-sealed.** `state_hash` is an FNV-1a digest over a
//!   canonical walk of the payload tree, continued over each page's
//!   own hash in page order. Because the whole simulator is bit-for-bit
//!   deterministic, two replicas that executed the same event stream
//!   produce the *same* hash — so a hash mismatch at a watermark is a
//!   desync (or tampering) detector, not noise.
//! * **Paged.** A scheduler core's outcome history (the per-id outcome
//!   and type tables and the arrival order) only ever grows, and a
//!   record stops changing once its task has resolved. The core cuts
//!   it into fixed-size pages and seals a page once, when every task
//!   in it has arrived and resolved; every later capture of that core
//!   shares the sealed page by reference instead of rebuilding it, and
//!   the payload carries only the records outside sealed pages. A
//!   capture therefore costs the live state plus the records resolved
//!   since the previous capture, not the length of the run. Each page
//!   carries its own FNV-1a hash of its body, so sealing a capture
//!   hashes the payload plus one word per page. [`Snapshot::verify`]
//!   still re-hashes every page body before anything is restored: a
//!   flipped bit inside a page, or a page dropped, duplicated or
//!   swapped on the wire, is a [`SnapshotError::HashMismatch`]. An
//!   envelope without pages — every capture written before pages
//!   existed, and every component but the core — hashes, serializes,
//!   verifies and restores exactly as before: its hash chain is the
//!   payload's digest alone, and the core reads its payload with the
//!   one decoder, stitching in zero pages.
//! * **Forward-compatible decode.** Optional envelope fields follow
//!   the same missing-field convention as the bench `BenchEntry`
//!   records: absent means `None`, so snapshots written before a field
//!   existed keep loading. Restore paths default each legacy-absent
//!   field to "the subsystem didn't exist at capture": a pre-reuse
//!   snapshot restores with an empty gate, and a pre-tenancy one with
//!   a fresh `TenantTable` — new state never invents history a
//!   bit-identity replay would have to explain. State this build no
//!   longer has is the reverse case: a gateway capture restores only
//!   if its `stale` view table is absent or null and its `steals`
//!   counters are absent or all zero (the relaxed-routing layer was
//!   off). Anything else is a [`SnapshotError::ShapeMismatch`],
//!   because resuming it would silently run a different federation.
//!   Retired state that a resumed run cannot miss is ignored: a
//!   coordinator's resharding log, the reuse gate's `seq`/`next_seq`
//!   ordinals, a tenant table's fair-admission `windows` and a core's
//!   `sla_rung` (the overload rung its deferral chance was biased by;
//!   the core no longer reads one). A journal spans one checkpoint
//!   interval of one run, so a retired journal op (`Steal`, `Adopt`,
//!   `SlaRung`) is a [`SnapshotError::Decode`]. A tenant table's
//!   ladder rung above the top one is a typed error.
//!
//! **When the seal is computed.** Every `snapshot()` above, and
//! [`crate::FederatedEngine::checkpoint`], returns a sealed envelope:
//! the payload rendered into a [`Value`] tree and hashed when it is
//! taken. A [`crate::Supervisor`] checkpoints every shard at every
//! watermark but reads a checkpoint only when that shard fails, so it
//! keeps each one as a typed copy of the core's state instead, taken
//! with every capture-time effect applied (new pages sealed, the reuse
//! ledger swept, the plug-in states read). It renders and seals a copy
//! only when it restores the shard from it (or salvages the shard's
//! backlog), and the sealed envelope is byte-identical to what
//! `checkpoint` returned at the capture instant.
//!
//! A core restore also checks that the outcome record it stitches back
//! together describes one run, and returns
//! [`SnapshotError::ShapeMismatch`] otherwise: the outcome and type
//! tables have equal lengths, there is one per-type counter per PET
//! task type and every counter matches the tables, every recorded type
//! is a PET task type, every arrival-order id lies inside the tables,
//! the pages and the inline records cover the id range exactly once,
//! and no sealed page holds an unresolved task. Every live task — still
//! batch-queued, waiting or running on a machine, or parked as a reuse
//! follower — must be an unresolved arrival of the type the record
//! holds for its id, and the only live task with that id; no running
//! task starts after the capture's clock. A shard recovery also rejects
//! a capture whose clock is ahead of the journal replayed on top of it.
//! Each of these, left unchecked, either panicked later in the journal
//! replay or resumed a run on misaligned tables.
//!
//! Chain caches and scratch arenas are never serialized — restore
//! rebuilds them lazily, which the incremental-chain determinism
//! contract guarantees is bit-identical.

use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;

/// The snapshot wire-format version written by this build.
///
/// Bump when the payload layout of any component changes shape in a
/// way old readers cannot tolerate. Readers accept exactly the
/// versions they know how to restore; [`Snapshot::verify`] turns an
/// unknown version into [`SnapshotError::UnsupportedVersion`]. This
/// build reads every version from 1 (no pages) to this one.
pub const SNAPSHOT_VERSION: u64 = 2;

/// The oldest wire-format version this build still verifies and
/// restores.
const OLDEST_READ_VERSION: u64 = 1;

/// Why a snapshot could not be verified or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot was written by an unknown (usually newer) format
    /// version; restoring it could silently misinterpret state.
    UnsupportedVersion {
        /// The version stamped on the snapshot.
        found: u64,
    },
    /// The payload and pages do not hash to the sealed `state_hash`,
    /// or a page body does not hash to its own sealed hash — the
    /// snapshot was corrupted in storage, tampered with, or the two
    /// replicas have desynced.
    HashMismatch {
        /// The hash sealed when the snapshot was written: the
        /// envelope's, or the first failing page's.
        expected: u64,
        /// The hash recomputed over what was decoded.
        found: u64,
    },
    /// The payload tree did not decode into the component's state
    /// (wrong types, missing required fields).
    Decode(String),
    /// The payload decoded but does not fit the live component it is
    /// being restored into (wrong shard count, wrong machine count,
    /// over-capacity queue).
    ShapeMismatch {
        /// Which structural expectation was violated.
        what: &'static str,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot version {found} (this build reads \
                 versions {OLDEST_READ_VERSION} to {SNAPSHOT_VERSION})"
            ),
            Self::HashMismatch { expected, found } => write!(
                f,
                "snapshot state-hash mismatch: sealed {expected:#018x}, \
                 contents hash to {found:#018x} (corruption or desync)"
            ),
            Self::Decode(msg) => {
                write!(f, "snapshot payload failed to decode: {msg}")
            }
            Self::ShapeMismatch { what } => {
                write!(f, "snapshot does not fit the live component: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<serde::Error> for SnapshotError {
    fn from(e: serde::Error) -> Self {
        Self::Decode(e.to_string())
    }
}

/// FNV-1a digest over a canonical walk of a [`Value`] tree.
///
/// Deterministic across runs and hosts: every variant contributes a
/// tag byte plus its content bytes (integers little-endian, floats by
/// IEEE-754 bit pattern, object fields in their stable serialized
/// order). This is the hash [`Page::seal`] stamps on a page body and
/// [`Snapshot::seal`] on a page-less payload; [`Snapshot::verify`]
/// recomputes both.
pub fn state_hash(v: &Value) -> u64 {
    sealed_hash(v, &[])
}

/// The envelope hash: [`state_hash`] of the payload, continued over
/// each page's sealed hash in page order. Without pages it is the
/// payload's digest alone.
fn sealed_hash(payload: &Value, pages: &[Arc<Page>]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    hash_value(&mut h, payload);
    for page in pages {
        hash_bytes(&mut h, &page.hash.to_le_bytes());
    }
    h
}

fn hash_bytes(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100000001b3);
    }
}

fn hash_value(h: &mut u64, v: &Value) {
    match v {
        Value::Null => hash_bytes(h, &[0]),
        Value::Bool(b) => hash_bytes(h, &[1, u8::from(*b)]),
        Value::UInt(n) => {
            hash_bytes(h, &[2]);
            hash_bytes(h, &n.to_le_bytes());
        }
        Value::Int(n) => {
            hash_bytes(h, &[3]);
            hash_bytes(h, &n.to_le_bytes());
        }
        Value::Float(x) => {
            hash_bytes(h, &[4]);
            hash_bytes(h, &x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            hash_bytes(h, &[5]);
            hash_bytes(h, &(s.len() as u64).to_le_bytes());
            hash_bytes(h, s.as_bytes());
        }
        Value::Array(items) => {
            hash_bytes(h, &[6]);
            hash_bytes(h, &(items.len() as u64).to_le_bytes());
            for item in items {
                hash_value(h, item);
            }
        }
        Value::Object(fields) => {
            hash_bytes(h, &[7]);
            hash_bytes(h, &(fields.len() as u64).to_le_bytes());
            for (k, val) in fields {
                hash_bytes(h, &(k.len() as u64).to_le_bytes());
                hash_bytes(h, k.as_bytes());
                hash_value(h, val);
            }
        }
    }
}

/// One sealed page of a component's append-only history: a body
/// that never changes again, under its own [`state_hash`].
///
/// A [`Snapshot`] holds its pages by [`Arc`], so consecutive captures
/// of one scheduler core share every page sealed before the earlier of
/// them (see the [module docs](self)).
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Page {
    hash: u64,
    body: Value,
}

impl Page {
    /// Seals `body` under its [`state_hash`].
    pub fn seal(body: Value) -> Self {
        Self {
            hash: state_hash(&body),
            body,
        }
    }

    /// The hash sealed over the body when the page was written.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The page body, unverified ([`Snapshot::verify`] re-hashes it).
    pub fn body(&self) -> &Value {
        &self.body
    }
}

/// A versioned, hash-sealed capture of one component's state.
///
/// Produced by the `snapshot()` methods on [`crate::SchedulerCore`],
/// [`crate::queue::MachineQueue`], [`crate::IdCompactor`] and the
/// federated engines; consumed by the matching `restore()` methods,
/// which call [`Snapshot::verify`] before touching any live state.
///
/// The envelope serializes through the vendored serde like any other
/// record, so snapshots round-trip through `serde_json` for durable
/// storage. A capture with pages writes them beside the payload as
/// `pages: [{hash, body}, ..]`; one without writes no `pages` field.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    version: u64,
    state_hash: u64,
    component: Option<String>,
    payload: Value,
    pages: Vec<Arc<Page>>,
}

impl Snapshot {
    /// Seals `payload` into an envelope stamped with the current
    /// [`SNAPSHOT_VERSION`] and the payload's [`state_hash`].
    pub fn seal(component: &str, payload: Value) -> Self {
        Self::seal_with_pages(component, payload, Vec::new())
    }

    /// Seals `payload` and `pages` into one envelope: the state hash
    /// continues the payload's digest over each page's sealed hash in
    /// order, so the pages themselves are not re-hashed.
    pub fn seal_with_pages(
        component: &str,
        payload: Value,
        pages: Vec<Arc<Page>>,
    ) -> Self {
        Self {
            version: SNAPSHOT_VERSION,
            state_hash: sealed_hash(&payload, &pages),
            component: Some(component.to_owned()),
            payload,
            pages,
        }
    }

    /// The wire-format version stamped when the snapshot was written.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The hash sealed over the payload and pages at write time.
    pub fn state_hash(&self) -> u64 {
        self.state_hash
    }

    /// Which component wrote this snapshot, when recorded. Snapshots
    /// from before the tag existed decode as `None` (the
    /// forward-compatible missing-field convention).
    pub fn component(&self) -> Option<&str> {
        self.component.as_deref()
    }

    /// The raw payload tree, unverified. Restore paths must go through
    /// [`Snapshot::verify`] instead.
    pub fn payload(&self) -> &Value {
        &self.payload
    }

    /// The sealed pages beside the payload, in page order, unverified
    /// (empty for every component but the scheduler core).
    pub fn pages(&self) -> &[Arc<Page>] {
        &self.pages
    }

    /// Checks the envelope and returns the payload if it is intact:
    /// the version must be one this build reads, every page body must
    /// hash back to its page's sealed hash, and the payload and page
    /// hashes must chain back to the sealed `state_hash`.
    ///
    /// # Errors
    /// [`SnapshotError::UnsupportedVersion`] for a version this build
    /// does not read; [`SnapshotError::HashMismatch`] when the payload
    /// or a page has been corrupted, a page was dropped, duplicated or
    /// reordered, or the producing replica desynced.
    pub fn verify(&self) -> Result<&Value, SnapshotError> {
        if !(OLDEST_READ_VERSION..=SNAPSHOT_VERSION).contains(&self.version) {
            return Err(SnapshotError::UnsupportedVersion {
                found: self.version,
            });
        }
        for page in &self.pages {
            let found = state_hash(&page.body);
            if found != page.hash {
                return Err(SnapshotError::HashMismatch {
                    expected: page.hash,
                    found,
                });
            }
        }
        let found = sealed_hash(&self.payload, &self.pages);
        if found != self.state_hash {
            return Err(SnapshotError::HashMismatch {
                expected: self.state_hash,
                found,
            });
        }
        Ok(&self.payload)
    }
}

impl Serialize for Snapshot {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("version".to_owned(), self.version.to_value()),
            ("state_hash".to_owned(), self.state_hash.to_value()),
            ("component".to_owned(), self.component.to_value()),
            ("payload".to_owned(), self.payload.clone()),
        ];
        if !self.pages.is_empty() {
            let pages = self.pages.iter().map(|p| p.to_value()).collect();
            fields.push(("pages".to_owned(), Value::Array(pages)));
        }
        Value::Object(fields)
    }
}

impl Deserialize for Snapshot {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Self {
            version: Deserialize::from_value(v.get_field("version")?)?,
            state_hash: Deserialize::from_value(v.get_field("state_hash")?)?,
            // Written before `component` existed? Still loads — the
            // same convention as `BenchEntry::robustness_pct`.
            component: match v.get_opt("component") {
                Some(f) => Deserialize::from_value(f)?,
                None => None,
            },
            payload: v.get_field("payload")?.clone(),
            // Written before pages existed: none.
            pages: match v.get_opt("pages") {
                Some(f) => Vec::<Page>::from_value(f)?
                    .into_iter()
                    .map(Arc::new)
                    .collect(),
                None => Vec::new(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload() -> Value {
        Value::Object(vec![
            ("now".to_owned(), Value::UInt(42)),
            (
                "queues".to_owned(),
                Value::Array(vec![Value::Float(0.25), Value::Null]),
            ),
        ])
    }

    #[test]
    fn sealed_snapshot_verifies_and_roundtrips() {
        let snap = Snapshot::seal("unit-test", payload());
        assert_eq!(snap.version(), SNAPSHOT_VERSION);
        assert_eq!(snap.component(), Some("unit-test"));
        assert_eq!(snap.verify().expect("intact"), &payload());

        let wire = snap.to_value();
        let back = Snapshot::from_value(&wire).expect("decodes");
        assert_eq!(back, snap);
        assert_eq!(back.verify().expect("still intact"), &payload());
    }

    #[test]
    fn tampered_payload_is_rejected_by_state_hash() {
        let snap = Snapshot::seal("unit-test", payload());
        let mut wire = snap.to_value();
        // Flip one field deep inside the payload, as silent storage
        // corruption would.
        let Value::Object(fields) = &mut wire else {
            unreachable!()
        };
        let Value::Object(inner) = &mut fields[3].1 else {
            unreachable!()
        };
        inner[0].1 = Value::UInt(43);
        let tampered = Snapshot::from_value(&wire).expect("still decodes");
        let err = tampered.verify().expect_err("hash must catch the flip");
        assert!(
            matches!(err, SnapshotError::HashMismatch { .. }),
            "got {err:?}"
        );
        assert!(err.to_string().contains("state-hash mismatch"), "{err}");
    }

    #[test]
    fn future_version_decodes_but_refuses_to_verify() {
        let snap = Snapshot::seal("unit-test", payload());
        let mut wire = snap.to_value();
        let Value::Object(fields) = &mut wire else {
            unreachable!()
        };
        fields[0].1 = Value::UInt(SNAPSHOT_VERSION + 7);
        let future = Snapshot::from_value(&wire).expect(
            "decode never fails \
            on version alone",
        );
        assert_eq!(
            future.verify().expect_err("verify must refuse"),
            SnapshotError::UnsupportedVersion {
                found: SNAPSHOT_VERSION + 7
            }
        );
    }

    #[test]
    fn missing_component_field_still_decodes() {
        let snap = Snapshot::seal("unit-test", payload());
        let Value::Object(mut fields) = snap.to_value() else {
            unreachable!()
        };
        fields.retain(|(k, _)| k != "component");
        let old = Snapshot::from_value(&Value::Object(fields))
            .expect("pre-`component` snapshots must keep loading");
        assert_eq!(old.component(), None);
        assert_eq!(old.verify().expect("intact"), &payload());
    }

    fn pages() -> Vec<Arc<Page>> {
        (0..3u64)
            .map(|i| {
                Arc::new(Page::seal(Value::Array(vec![
                    Value::UInt(i),
                    Value::Str(format!("page {i}")),
                ])))
            })
            .collect()
    }

    /// The `pages` array of a snapshot's wire form.
    fn wire_pages(wire: &mut Value) -> &mut Vec<Value> {
        let Value::Object(fields) = wire else {
            unreachable!()
        };
        let Some((_, Value::Array(pages))) =
            fields.iter_mut().find(|(k, _)| k == "pages")
        else {
            panic!("a paged snapshot writes `pages`");
        };
        pages
    }

    #[test]
    fn page_less_envelope_hashes_and_serializes_as_before() {
        let snap = Snapshot::seal("unit-test", payload());
        assert_eq!(snap.state_hash(), state_hash(&payload()));
        assert!(snap.pages().is_empty());
        let Value::Object(fields) = snap.to_value() else {
            unreachable!()
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["version", "state_hash", "component", "payload"]);
    }

    #[test]
    fn paged_snapshot_verifies_roundtrips_and_chains_page_hashes() {
        let snap = Snapshot::seal_with_pages("unit-test", payload(), pages());
        assert_eq!(snap.verify().expect("intact"), &payload());
        assert_ne!(snap.state_hash(), state_hash(&payload()));
        let back = Snapshot::from_value(&snap.to_value()).expect("decodes");
        assert_eq!(back, snap);
        assert_eq!(back.pages().len(), 3);
        back.verify().expect("still intact");
        // Resealing shares the pages: the same hash, no page re-hashed.
        let again = Snapshot::seal_with_pages(
            "unit-test",
            payload(),
            snap.pages().to_vec(),
        );
        assert_eq!(again.state_hash(), snap.state_hash());
        assert!(Arc::ptr_eq(&again.pages()[1], &snap.pages()[1]));
    }

    #[test]
    fn tampered_dropped_duplicated_or_swapped_pages_are_hash_mismatches() {
        let snap = Snapshot::seal_with_pages("unit-test", payload(), pages());
        let wire = snap.to_value();
        type Edit = fn(&mut Vec<Value>);
        let edits: Vec<(&str, Edit)> = vec![
            ("flip", |p| {
                let Value::Object(page) = &mut p[1] else {
                    unreachable!()
                };
                let Value::Array(body) = &mut page[1].1 else {
                    unreachable!()
                };
                body[0] = Value::UInt(7);
            }),
            ("drop", |p| {
                p.remove(1);
            }),
            ("duplicate", |p| {
                let copy = p[0].clone();
                p.insert(1, copy);
            }),
            ("swap", |p| p.swap(0, 2)),
        ];
        for (name, edit) in edits {
            let mut bad = wire.clone();
            edit(wire_pages(&mut bad));
            let bad = Snapshot::from_value(&bad).expect("still decodes");
            assert!(
                matches!(bad.verify(), Err(SnapshotError::HashMismatch { .. })),
                "{name}: {:?}",
                bad.verify()
            );
        }
    }

    #[test]
    fn version_one_envelopes_still_verify() {
        let stamped = |version: u64| {
            let mut wire = Snapshot::seal("unit-test", payload()).to_value();
            let Value::Object(fields) = &mut wire else {
                unreachable!()
            };
            fields[0].1 = Value::UInt(version);
            Snapshot::from_value(&wire).expect("decodes")
        };
        let old = stamped(1);
        assert_eq!(old.version(), 1);
        assert_eq!(old.verify().expect("version 1 is read"), &payload());
        assert_eq!(
            stamped(0).verify(),
            Err(SnapshotError::UnsupportedVersion { found: 0 })
        );
    }

    #[test]
    fn hash_distinguishes_shape_not_just_content() {
        // [1,2] vs [[1],[2]] vs {"a":1,"b":2} must all differ.
        let a = Value::Array(vec![Value::UInt(1), Value::UInt(2)]);
        let b = Value::Array(vec![
            Value::Array(vec![Value::UInt(1)]),
            Value::Array(vec![Value::UInt(2)]),
        ]);
        let c = Value::Object(vec![
            ("a".to_owned(), Value::UInt(1)),
            ("b".to_owned(), Value::UInt(2)),
        ]);
        assert_ne!(state_hash(&a), state_hash(&b));
        assert_ne!(state_hash(&a), state_hash(&c));
        assert_ne!(state_hash(&b), state_hash(&c));
    }

    #[test]
    fn errors_display_specifically() {
        let cases: Vec<(SnapshotError, &str)> = vec![
            (SnapshotError::UnsupportedVersion { found: 9 }, "version 9"),
            (
                SnapshotError::HashMismatch {
                    expected: 1,
                    found: 2,
                },
                "mismatch",
            ),
            (SnapshotError::Decode("bad".into()), "bad"),
            (
                SnapshotError::ShapeMismatch {
                    what: "shard count",
                },
                "shard count",
            ),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
            // std::error::Error is implemented (satellite: `?` across
            // the facade).
            let _: &dyn std::error::Error = &err;
        }
    }
}
