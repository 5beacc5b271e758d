//! Versioned, hash-sealed state snapshots.
//!
//! Every durable piece of federation state — [`crate::SchedulerCore`],
//! [`crate::Gateway`] and the [`crate::FederatedEngine`] coordinator —
//! captures itself into a [`Snapshot`]: a wire envelope carrying a
//! format `version`, a `state_hash` sealed over the payload, a
//! `component` tag, and the payload [`Value`] tree itself. Each
//! payload is one derived wire struct per layer (a core's `CoreState`,
//! a gateway's `GatewayState`, a coordinator's `CoordinatorState`),
//! which the seal renders and the restore decodes whole. A core's
//! payload holds the whole state, its whole outcome record (outcome
//! and type per task id, the arrival order, the per-type counters)
//! included, in [`crate::SimStats`]' own encoding.
//!
//! Four properties make the envelope production-grade:
//!
//! * **Versioned.** [`SNAPSHOT_VERSION`] stamps every snapshot, and
//!   this build verifies that version alone. *Decoding* never fails on
//!   an unknown version (a newer writer's data still parses), but
//!   [`Snapshot::verify`] rejects any other version with
//!   [`SnapshotError::UnsupportedVersion`] before a payload field is
//!   read. Every capture an earlier build wrote is version 1 to 5, so
//!   none of them restores here.
//! * **Hash-sealed.** `state_hash` is an FNV-1a digest over a
//!   canonical walk of the payload tree. Because the whole simulator
//!   is bit-for-bit deterministic, two replicas that executed the same
//!   event stream produce the *same* hash — so a hash mismatch at a
//!   watermark is a desync (or tampering) detector, not noise.
//! * **Decoded whole.** A restore decodes the payload into its wire
//!   struct before it changes anything: a missing field or a value of
//!   the wrong type or range is a [`SnapshotError::Decode`]. Only the
//!   plug-in states, which travel as the value trees their
//!   `snapshot_state` hooks wrote, are decoded later, by their
//!   `restore_state` hooks as they are installed. A journal
//!   spans one checkpoint interval of one run, so a journaled
//!   operation this build does not have (`Steal`, `Adopt`, `SlaRung`)
//!   is a [`SnapshotError::Decode`] too.
//! * **Checked before it is installed.** A decoded payload that does
//!   not describe a state this component could have reached is a
//!   [`SnapshotError::ShapeMismatch`]. A core checks that the outcome
//!   record describes one run: the outcome and type tables have equal
//!   lengths, the arrival order lists each arrived id (each id with a
//!   recorded type) exactly once, there is one per-type counter per
//!   PET task type and every counter matches the tables, and every
//!   recorded type is a PET task type. Every live task — still
//!   batch-queued, waiting or running on a machine, or parked as a
//!   reuse follower — must be an unresolved arrival of the type the
//!   record holds for its id, and the only live task with that id; no
//!   running task starts after the capture's clock, and no waiting
//!   list exceeds its queue's capacity. A shard recovery also rejects
//!   a capture whose clock is ahead of the journal replayed on top of
//!   it. A gateway checks its shard count, that the id compactor and
//!   the quarantine vector have one entry per shard, that every
//!   arrival-order entry names an id the compactor assigned, that the
//!   reuse gate fits its reuse policy (a capture with a gate restores
//!   only into a gateway with reuse on, and one without only into a
//!   gateway with reuse off) and every gate primary lives on one of
//!   its shards, and that the tenant table fits its tenancy (a capture
//!   with a table restores only into a gateway with tenancy, and one
//!   without only into a gateway without). A coordinator checks its per-shard lengths,
//!   event shards and times, pending counts and fault-injector
//!   counters. Each of these, left unchecked, either panicked later in
//!   the journal replay or the resumed run, or resumed a run on a
//!   record no run could have written.
//!
//! **When the seal is computed.** Every `snapshot()` above, and
//! [`crate::FederatedEngine::checkpoint`], returns a sealed envelope:
//! the payload rendered into a [`Value`] tree and hashed when it is
//! taken. A [`crate::Supervisor`] checkpoints every shard at every
//! watermark but reads a checkpoint only when that shard fails, so it
//! keeps each one as a typed copy of the core's state instead, taken
//! with every capture-time effect applied (the reuse ledger swept, the
//! plug-in states read). The copy shares the outcome records that
//! earlier copies already hold: the core seals its history in memory,
//! 64 task ids at a time, once every task in them has resolved, and
//! every later copy holds the one list of those pages by reference.
//! The supervisor keeps one copy per shard and overwrites it in place
//! at each checkpoint. It renders and seals a copy only when it
//! restores the shard from it (or salvages the shard's backlog), and
//! the sealed envelope is byte-identical to what `checkpoint` returned
//! at the capture instant.
//!
//! Chain caches and scratch arenas are never serialized — restore
//! rebuilds them lazily, which the incremental-chain determinism
//! contract guarantees is bit-identical.

use serde::{Deserialize, Serialize, Value};

/// The snapshot wire-format version written by this build, and the
/// only one [`Snapshot::verify`] accepts.
///
/// Bump when the payload layout of any component changes shape:
/// [`Snapshot::verify`] turns every other version into
/// [`SnapshotError::UnsupportedVersion`], so an earlier build's
/// capture is refused before its payload is read.
pub const SNAPSHOT_VERSION: u64 = 6;

/// Why a snapshot could not be verified or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot was written by another format version (an earlier
    /// build's, or a newer one); restoring it could silently
    /// misinterpret state.
    UnsupportedVersion {
        /// The version stamped on the snapshot.
        found: u64,
    },
    /// The payload does not hash to the sealed `state_hash` — the
    /// snapshot was corrupted in storage, tampered with, or the two
    /// replicas have desynced.
    HashMismatch {
        /// The hash sealed when the snapshot was written.
        expected: u64,
        /// The hash recomputed over the decoded payload.
        found: u64,
    },
    /// The envelope or payload tree did not decode into the
    /// component's wire struct (wrong types, out-of-range values,
    /// missing fields).
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
/// order). This is the hash [`Snapshot::seal`] stamps on a payload and
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
/// Produced by the `snapshot()` methods on [`crate::SchedulerCore`]
/// and [`crate::Gateway`] and by the federated engine's checkpoints;
/// consumed by the matching `restore()` methods, which call
/// [`Snapshot::verify`] before touching any live state.
///
/// The envelope serializes through the vendored serde like any other
/// record, so snapshots round-trip through `serde_json` for durable
/// storage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

    /// Which component wrote this snapshot (`None` for an envelope
    /// whose tag is null).
    pub fn component(&self) -> Option<&str> {
        self.component.as_deref()
    }

    /// The raw payload tree, unverified. Restore paths must go through
    /// [`Snapshot::verify`] instead.
    pub fn payload(&self) -> &Value {
        &self.payload
    }

    /// Checks the envelope and returns the payload if it is intact:
    /// the version must be [`SNAPSHOT_VERSION`], and the payload must
    /// hash back to the sealed `state_hash`.
    ///
    /// # Errors
    /// [`SnapshotError::UnsupportedVersion`] for any other version;
    /// [`SnapshotError::HashMismatch`] when the payload has been
    /// corrupted or the producing replica desynced.
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

    /// The wire form is the four envelope fields, hashed over the
    /// payload alone.
    #[test]
    fn envelopes_are_four_fields_hashed_over_the_payload() {
        let snap = Snapshot::seal("unit-test", payload());
        assert_eq!(snap.state_hash(), state_hash(&payload()));
        let Value::Object(fields) = snap.to_value() else {
            unreachable!()
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["version", "state_hash", "component", "payload"]);
    }

    /// Only this build's version verifies: every earlier build wrote
    /// version 1 to 5, and a newer one may write anything above.
    #[test]
    fn only_this_builds_version_verifies() {
        let stamped = |version: u64| {
            let mut wire = Snapshot::seal("unit-test", payload()).to_value();
            let Value::Object(fields) = &mut wire else {
                unreachable!()
            };
            fields[0].1 = Value::UInt(version);
            Snapshot::from_value(&wire).expect("decodes")
        };
        assert_eq!(SNAPSHOT_VERSION, 6);
        assert_eq!(stamped(6).verify().expect("version 6 is read"), &payload());
        for found in [0, 1, 2, 3, 4, 5, 7] {
            assert_eq!(
                stamped(found).verify(),
                Err(SnapshotError::UnsupportedVersion { found })
            );
        }
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
