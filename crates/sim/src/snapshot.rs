//! Versioned, hash-sealed state snapshots.
//!
//! Every durable piece of federation state — [`crate::SchedulerCore`],
//! [`crate::queue::MachineQueue`], [`crate::IdCompactor`],
//! [`crate::Gateway`] — captures itself into a [`Snapshot`]: a wire
//! envelope carrying a format `version`, a `state_hash` sealed over the
//! payload, an optional `component` tag, and the payload [`Value`] tree
//! itself.
//!
//! Three properties make the envelope production-grade:
//!
//! * **Versioned.** [`SNAPSHOT_VERSION`] stamps every snapshot.
//!   *Decoding* never fails on an unknown version (a newer writer's
//!   data still parses), but [`Snapshot::verify`] rejects it with
//!   [`SnapshotError::UnsupportedVersion`] before any state is
//!   restored from it.
//! * **Hash-sealed.** `state_hash` is an FNV-1a digest over a
//!   canonical walk of the payload tree. Because the whole simulator
//!   is bit-for-bit deterministic, two replicas that executed the same
//!   event stream produce the *same* hash — so a hash mismatch at a
//!   watermark is a desync (or tampering) detector, not noise.
//! * **Forward-compatible decode.** Optional envelope fields follow
//!   the same missing-field convention as the bench `BenchEntry`
//!   records: absent means `None`, so snapshots written before a field
//!   existed keep loading. Restore paths default each legacy-absent
//!   field to "the subsystem didn't exist at capture": a pre-reuse
//!   snapshot restores with an empty gate, and a pre-tenancy one with
//!   a fresh `TenantTable` and `sla_rung = None` (SLA-aware pruning
//!   off) — new state never invents history a bit-identity replay
//!   would have to explain. State this build no longer has is the
//!   reverse case: a gateway capture restores only if its `stale`
//!   view table is absent or null and its `steals` counters are
//!   absent or all zero (the relaxed-routing layer was off). Anything
//!   else is a [`SnapshotError::ShapeMismatch`], because resuming it
//!   would silently run a different federation. Retired state that
//!   never changed a decision is ignored: a coordinator's resharding
//!   log, the reuse gate's `seq`/`next_seq` ordinals and a tenant
//!   table's fair-admission `windows`. A ladder rung above the top
//!   one is a typed error wherever it appears.
//!
//! Chain caches and scratch arenas are never serialized — restore
//! rebuilds them lazily, which the incremental-chain determinism
//! contract guarantees is bit-identical.

use serde::{Deserialize, Serialize, Value};

/// The snapshot wire-format version written by this build.
///
/// Bump when the payload layout of any component changes shape in a
/// way old readers cannot tolerate. Readers accept exactly the
/// versions they know how to restore; [`Snapshot::verify`] turns an
/// unknown version into [`SnapshotError::UnsupportedVersion`].
pub const SNAPSHOT_VERSION: u64 = 1;

/// Why a snapshot could not be verified or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot was written by an unknown (usually newer) format
    /// version; restoring it could silently misinterpret state.
    UnsupportedVersion {
        /// The version stamped on the snapshot.
        found: u64,
    },
    /// The payload does not hash to the sealed `state_hash` — the
    /// snapshot was corrupted in storage, tampered with, or the two
    /// replicas have desynced.
    HashMismatch {
        /// The hash sealed into the envelope when it was written.
        expected: u64,
        /// The hash recomputed over the payload as decoded.
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
                 version {SNAPSHOT_VERSION})"
            ),
            Self::HashMismatch { expected, found } => write!(
                f,
                "snapshot state-hash mismatch: sealed {expected:#018x}, \
                 payload hashes to {found:#018x} (corruption or desync)"
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
/// order). This is the hash [`Snapshot::seal`] stamps and
/// [`Snapshot::verify`] recomputes.
pub fn state_hash(v: &Value) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    hash_value(&mut h, v);
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

/// A versioned, hash-sealed capture of one component's state.
///
/// Produced by the `snapshot()` methods on [`crate::SchedulerCore`],
/// [`crate::queue::MachineQueue`], [`crate::IdCompactor`] and the
/// federated engines; consumed by the matching `restore()` methods,
/// which call [`Snapshot::verify`] before touching any live state.
///
/// The envelope serializes through the vendored serde like any other
/// record, so snapshots round-trip through `serde_json` for durable
/// storage.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    version: u64,
    state_hash: u64,
    component: Option<String>,
    payload: Value,
}

impl Snapshot {
    /// Seals `payload` into an envelope stamped with the current
    /// [`SNAPSHOT_VERSION`] and the payload's [`state_hash`].
    pub fn seal(component: &str, payload: Value) -> Self {
        Self {
            version: SNAPSHOT_VERSION,
            state_hash: state_hash(&payload),
            component: Some(component.to_owned()),
            payload,
        }
    }

    /// The wire-format version stamped when the snapshot was written.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The hash sealed over the payload at write time.
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

    /// Checks the envelope and returns the payload if it is intact:
    /// the version must be one this build reads, and the payload must
    /// hash back to the sealed `state_hash`.
    ///
    /// # Errors
    /// [`SnapshotError::UnsupportedVersion`] for a version this build
    /// does not read; [`SnapshotError::HashMismatch`] when the payload
    /// has been corrupted or the producing replica desynced.
    pub fn verify(&self) -> Result<&Value, SnapshotError> {
        if self.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: self.version,
            });
        }
        let found = state_hash(&self.payload);
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
        Value::Object(vec![
            ("version".to_owned(), self.version.to_value()),
            ("state_hash".to_owned(), self.state_hash.to_value()),
            ("component".to_owned(), self.component.to_value()),
            ("payload".to_owned(), self.payload.clone()),
        ])
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
