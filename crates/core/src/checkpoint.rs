//! Durable checkpoint/restore: crash-consistent snapshots of instance state.
//!
//! The [`crate::journal::StateJournal`] already captures everything needed
//! to rebuild an instance in-process (failover uses it to repartition after
//! an eviction). This module makes that state *durable*: a [`Checkpoint`]
//! serializes the journal together with the instance's sizing
//! ([`crate::InstanceConfig`]) and creation provenance (preference /
//! requirement flags, rescue setting, pinned implementation name) into a
//! versioned text snapshot that survives the process. A fresh process loads
//! the snapshot, re-creates the instance through its own
//! [`crate::ImplementationManager`], and replays the journal — producing
//! log-likelihoods **bit-exact** with the run that wrote the snapshot
//! (every `f64` is stored as its 16-digit hex bit pattern, never formatted
//! decimally).
//!
//! Partitioned instances checkpoint through the same path: the parent's
//! whole-problem journal is what gets serialized, so a snapshot taken
//! *after* any number of adaptive rebalances
//! ([`crate::balance::LoadBalancer`]) carries no partition geometry at all.
//! Restore re-creates one instance (or a fresh partition) through the new
//! process's manager and replays the full-problem state — the rebalance
//! history affects *where* work ran, never *what* state was recorded, which
//! is what keeps restore bit-exact (see `tests/balance.rs`).
//!
//! # Format
//!
//! ```text
//! BEAGLE-CKPT v1
//! config <tips> <partials> <compact> <states> <patterns> <eigen> <matrices> <categories> <scales>
//! provenance <prefs-hex> <reqs-hex> <rescue 0|1>
//! implementation <name>          (only when creation was pinned by name)
//! journal
//! <journal records, one per line>
//! end
//! hash <fnv1a64-hex>
//! ```
//!
//! The trailing hash covers every byte above it. Any validation failure —
//! bad magic, unknown version, truncation, hash mismatch — surfaces as
//! [`BeagleError::CheckpointCorrupt`]; a corrupt snapshot is *reported*,
//! never silently replayed. Filesystem failures surface separately as
//! [`BeagleError::CheckpointIo`]. [`Checkpoint::save`] writes to a
//! temporary sibling file and renames it into place, so a crash mid-write
//! leaves the previous snapshot intact.
//!
//! # Who answers `checkpoint()`
//!
//! [`JournaledInstance`] answers [`crate::BeagleInstance::checkpoint`] when
//! [`crate::InstanceSpec::checkpointed`] is set. It is the outermost wrapper
//! of a managed instance, so a snapshot reflects exactly the calls the
//! client made.
//! [`crate::multi::PartitionedInstance`] answers from its failover journal.

use std::path::Path;

use crate::api::InstanceConfig;
use crate::error::{BeagleError, Result};
use crate::flags::Flags;
use crate::journal::{JournaledInstance, StateJournal};
use crate::manager::ImplementationManager;
use crate::obs::EventKind;
use crate::spec::InstanceSpec;

/// Magic + version line opening every snapshot.
const MAGIC: &str = "BEAGLE-CKPT v1";

/// How the checkpointed instance was created, so restore can rebuild the
/// same wrapper stack on the same (or an equivalent) resource.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Provenance {
    /// Preference flags the instance was created with.
    pub preferences: Flags,
    /// Requirement flags the instance was created with.
    pub requirements: Flags,
    /// Whether numerical rescue was enabled.
    pub rescue: bool,
    /// The pinned implementation name, when creation bypassed ranking.
    pub implementation: Option<String>,
}

/// A durable snapshot of one instance's replayable state.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Sizing of the instance that wrote the snapshot.
    pub config: InstanceConfig,
    /// How that instance was created.
    pub provenance: Provenance,
    /// The recorded state to replay.
    pub journal: StateJournal,
}

/// FNV-1a 64-bit over `bytes` (hand-rolled; the environment has no digest
/// crates). Not cryptographic — it detects corruption, not tampering.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn corrupt(msg: impl Into<String>) -> BeagleError {
    BeagleError::CheckpointCorrupt(msg.into())
}

impl Checkpoint {
    /// Serialize to the versioned text format, hash trailer included.
    pub fn encode(&self) -> String {
        let c = &self.config;
        let mut out = format!(
            "{MAGIC}\nconfig {} {} {} {} {} {} {} {} {}\nprovenance {:x} {:x} {}\n",
            c.tip_count,
            c.partials_buffer_count,
            c.compact_buffer_count,
            c.state_count,
            c.pattern_count,
            c.eigen_buffer_count,
            c.matrix_buffer_count,
            c.category_count,
            c.scale_buffer_count,
            self.provenance.preferences.0,
            self.provenance.requirements.0,
            self.provenance.rescue as u8,
        );
        if let Some(name) = &self.provenance.implementation {
            out.push_str("implementation ");
            out.push_str(name);
            out.push('\n');
        }
        out.push_str("journal\n");
        self.journal.encode_into(&mut out);
        out.push_str("end\n");
        let hash = fnv1a64(out.as_bytes());
        out.push_str(&format!("hash {hash:016x}\n"));
        out
    }

    /// Parse and validate a snapshot. Every validation failure is
    /// [`BeagleError::CheckpointCorrupt`].
    pub fn decode(text: &str) -> Result<Self> {
        // The hash line covers everything before it, so find and verify it
        // before parsing anything else.
        let body_end = text
            .rfind("\nhash ")
            .ok_or_else(|| corrupt("missing hash trailer"))?
            + 1;
        let (body, trailer) = text.split_at(body_end);
        let stated = trailer
            .strip_prefix("hash ")
            .and_then(|t| u64::from_str_radix(t.trim(), 16).ok())
            .ok_or_else(|| corrupt("malformed hash trailer"))?;
        let actual = fnv1a64(body.as_bytes());
        if stated != actual {
            return Err(corrupt(format!(
                "hash mismatch: snapshot says {stated:016x}, content hashes to {actual:016x}"
            )));
        }

        let mut lines = body.lines();
        if lines.next() != Some(MAGIC) {
            return Err(corrupt(format!("bad magic (expected \"{MAGIC}\")")));
        }
        let config_line = lines
            .next()
            .ok_or_else(|| corrupt("truncated before config"))?;
        let fields: Vec<usize> = config_line
            .strip_prefix("config ")
            .ok_or_else(|| corrupt("missing config line"))?
            .split_ascii_whitespace()
            .map(|t| t.parse().map_err(|_| corrupt("bad config field")))
            .collect::<Result<_>>()?;
        let [tips, partials, compact, states, patterns, eigen, matrices, categories, scales] =
            fields[..]
        else {
            return Err(corrupt(format!(
                "config needs 9 fields, got {}",
                fields.len()
            )));
        };
        let config = InstanceConfig {
            tip_count: tips,
            partials_buffer_count: partials,
            compact_buffer_count: compact,
            state_count: states,
            pattern_count: patterns,
            eigen_buffer_count: eigen,
            matrix_buffer_count: matrices,
            category_count: categories,
            scale_buffer_count: scales,
        };
        config
            .validate()
            .map_err(|e| corrupt(format!("config fails validation: {e}")))?;

        let prov_line = lines
            .next()
            .ok_or_else(|| corrupt("truncated before provenance"))?;
        let mut prov_tok = prov_line
            .strip_prefix("provenance ")
            .ok_or_else(|| corrupt("missing provenance line"))?
            .split_ascii_whitespace();
        let mut flag_bits = || -> Result<Flags> {
            prov_tok
                .next()
                .and_then(|t| u64::from_str_radix(t, 16).ok())
                .map(Flags)
                .ok_or_else(|| corrupt("bad provenance flags"))
        };
        let preferences = flag_bits()?;
        let requirements = flag_bits()?;
        let rescue = match prov_tok.next() {
            Some("0") => false,
            Some("1") => true,
            _ => return Err(corrupt("bad provenance rescue field")),
        };

        let mut implementation = None;
        let mut line = lines
            .next()
            .ok_or_else(|| corrupt("truncated before journal"))?;
        if let Some(name) = line.strip_prefix("implementation ") {
            implementation = Some(name.to_string());
            line = lines
                .next()
                .ok_or_else(|| corrupt("truncated before journal"))?;
        }
        if line != "journal" {
            return Err(corrupt("missing journal section"));
        }
        let mut journal_lines = Vec::new();
        let mut terminated = false;
        for l in lines {
            if l == "end" {
                terminated = true;
                break;
            }
            journal_lines.push(l);
        }
        if !terminated {
            return Err(corrupt("journal section not terminated by \"end\""));
        }
        let journal = StateJournal::decode_lines(&journal_lines).map_err(corrupt)?;
        Ok(Checkpoint {
            config,
            provenance: Provenance {
                preferences,
                requirements,
                rescue,
                implementation,
            },
            journal,
        })
    }

    /// Write the snapshot to `path` durably: the bytes land in a temporary
    /// sibling file first and are renamed into place, so a crash mid-write
    /// cannot leave a half-written snapshot under the final name.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        let io = |e: std::io::Error| BeagleError::CheckpointIo(format!("{}: {e}", path.display()));
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        std::fs::write(&tmp, self.encode()).map_err(io)?;
        std::fs::rename(&tmp, path).map_err(io)
    }

    /// Read and validate a snapshot from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| BeagleError::CheckpointIo(format!("{}: {e}", path.display())))?;
        Self::decode(&text)
    }

    /// Rebuild a live instance from this snapshot on `manager`: re-create
    /// with the recorded sizing and provenance, replay the journal into it,
    /// and hand back a checkpointing [`JournaledInstance`] seeded with the
    /// journal, so the restored instance can itself checkpoint again.
    pub fn restore(&self, manager: &ImplementationManager) -> Result<JournaledInstance> {
        let mut spec = InstanceSpec::with_config(self.config)
            .prefer(self.provenance.preferences)
            .require(self.provenance.requirements)
            .checkpointed();
        spec.rescue = self.provenance.rescue;
        if let Some(name) = &self.provenance.implementation {
            spec = spec.named(name.clone());
        }
        let mut inner = manager.create_unjournaled(&spec)?;
        self.journal
            .replay_slice(inner.as_mut(), &self.config, 0, self.config.pattern_count)?;
        let mut restored = JournaledInstance::with_journal(inner, &spec, self.journal.clone());
        restored.recorder.event(EventKind::CheckpointRestored, || {
            format!(
                "config={}x{} ops={} rescue={}",
                self.config.tip_count,
                self.config.pattern_count,
                self.journal.operations().len(),
                self.provenance.rescue
            )
        });
        Ok(restored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Operation;

    fn sample() -> Checkpoint {
        let mut journal = StateJournal::new();
        journal.record_tip_states(0, &[0, 1, 2, 3]);
        journal.record_tip_states(1, &[3, 2, 1, 0]);
        journal.record_pattern_weights(&[1.0, 2.0, 1.0, 1.0]);
        journal.record_frequencies(0, &[0.25; 4]);
        journal.record_operations(&[Operation::new(2, 0, 0, 1, 1)]);
        Checkpoint {
            config: InstanceConfig::for_tree(2, 4, 4, 1),
            provenance: Provenance {
                preferences: Flags::PROCESSOR_CPU | Flags::COMPUTATION_ASYNCH,
                requirements: Flags::PRECISION_DOUBLE,
                rescue: true,
                implementation: Some("CPU with spaces".into()),
            },
            journal,
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let ckpt = sample();
        let text = ckpt.encode();
        let back = Checkpoint::decode(&text).unwrap();
        assert_eq!(back.config, ckpt.config);
        assert_eq!(back.provenance, ckpt.provenance);
        assert_eq!(back.encode(), text, "re-encode is byte-identical");
    }

    #[test]
    fn no_implementation_line_when_unpinned() {
        let mut ckpt = sample();
        ckpt.provenance.implementation = None;
        let text = ckpt.encode();
        assert!(!text.contains("implementation"));
        let back = Checkpoint::decode(&text).unwrap();
        assert_eq!(back.provenance.implementation, None);
    }

    #[test]
    fn corruption_is_detected_not_replayed() {
        let text = sample().encode();
        // Flip one byte in the journal body.
        let idx = text.find("tip_states").unwrap();
        let mut bad = text.clone().into_bytes();
        bad[idx + 12] ^= 0x01;
        let err = Checkpoint::decode(std::str::from_utf8(&bad).unwrap());
        assert!(
            matches!(err, Err(BeagleError::CheckpointCorrupt(ref m)) if m.contains("hash")),
            "{err:?}"
        );
        // Truncation loses the trailer.
        let err = Checkpoint::decode(&text[..text.len() / 2]);
        assert!(
            matches!(err, Err(BeagleError::CheckpointCorrupt(_))),
            "{err:?}"
        );
        // Wrong magic.
        let err = Checkpoint::decode(&text.replace("BEAGLE-CKPT v1", "BEAGLE-CKPT v9"));
        assert!(
            matches!(err, Err(BeagleError::CheckpointCorrupt(_))),
            "{err:?}"
        );
        // A forged hash over tampered content still mismatches.
        let tampered = text.replace("provenance", "provenance ");
        let err = Checkpoint::decode(&tampered);
        assert!(
            matches!(err, Err(BeagleError::CheckpointCorrupt(_))),
            "{err:?}"
        );
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!(
            "beagle-ckpt-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.ckpt");
        let ckpt = sample();
        ckpt.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back.encode(), ckpt.encode());
        assert!(
            !dir.join("snap.ckpt.tmp").exists(),
            "temporary file renamed away"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_missing_file_is_io_not_corruption() {
        let err = Checkpoint::load("/nonexistent/beagle-nowhere.ckpt");
        assert!(matches!(err, Err(BeagleError::CheckpointIo(_))), "{err:?}");
    }
}
