//! Canonical run specification and its content-addressed cache key.
//!
//! A submitted job is fully described by `(experiment, suite scale,
//! memory configuration)` — Capstan's simulated results are
//! deterministic and machine-independent, so that tuple *is* the
//! result's address. The key is an FNV-1a-64 hash over the tuple's
//! canonical encoding (`capstan_sim::snapshot::SnapshotWriter`): every
//! field is serialized in one fixed order with floats as exact bit
//! patterns, so the key is
//! invariant under request-field reordering and alternative float
//! spellings, and distinct under any single-field change.
//!
//! [`RunSpec`] is also the one codec for a run's configuration.
//! [`FIELDS`] maps each `SUBMIT` key to its `experiments` flag and
//! spells its value; [`RunSpec::set`] parses and validates a value.
//! The wire parser, the `experiments` flag parser, `format_submit` and
//! the server's worker command line all go through them, so a
//! configuration the server accepts is one its worker parses back to
//! the same spec.

use capstan_bench::Suite;
use capstan_core::config::{mem_record_suffix, MemAddressing, MemTiming, PlanMode, MAX_TENANTS};
use capstan_sim::snapshot::{fnv1a_64, SnapshotWriter};

/// Versioned domain tag mixed into every cache key; bump on any change
/// to the canonical encoding so stale keys can never alias new ones.
const KEY_TAG: &str = "capstan-serve-key/v3";

/// Upper bound on `channels` — the widest topology the memory model is
/// exercised at, with headroom; an absurd channel count would otherwise
/// make a run allocate per-channel state unboundedly.
pub const MAX_CHANNELS: usize = 1024;

/// One run-configuration field: its `SUBMIT` key, its `experiments`
/// flag, and how a spec spells its value (the spelling
/// [`RunSpec::set`] parses back).
pub type Field = (&'static str, &'static str, fn(&RunSpec) -> String);

/// Every run-configuration field, in canonical order.
pub const FIELDS: [Field; 6] = [
    ("scale", "--scale", |s| s.scale.clone()),
    ("mem", "--mem", |s| s.mem.tag().to_string()),
    ("addresses", "--mem-addresses", |s| {
        s.addresses.tag().to_string()
    }),
    ("channels", "--mem-channels", |s| s.channels.to_string()),
    ("tenants", "--mem-tenants", |s| s.tenants.to_string()),
    ("plan", "--plan", |s| s.plan.tag().to_string()),
];

/// The fields a `plan=auto` submission leaves to the server's planner.
pub const PLANNED: [&str; 3] = ["mem", "addresses", "channels"];

/// One fully specified experiment request: the unit the server queues,
/// batches, and caches.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Experiment name (`table4` ... `extensions`); validated against
    /// `capstan_bench::experiments::ALL_NAMES` at the protocol layer.
    pub experiment: String,
    /// Suite scale: a named preset or the custom
    /// `la=F,graph=F,spmspm=F,conv=F` form (see [`Suite::parse`]). The
    /// raw spelling is kept — it is what worker command lines and
    /// journal headers carry — but the cache key hashes the *parsed*
    /// fingerprint, so `0.5` and `5e-1` address the same result.
    pub scale: String,
    /// DRAM timing mode (`--mem`).
    pub mem: MemTiming,
    /// Scattered-address mode (`--mem-addresses`).
    pub addresses: MemAddressing,
    /// Region-channel count (`--mem-channels`).
    pub channels: usize,
    /// Memory-tenant count (`--mem-tenants`).
    pub tenants: usize,
    /// Where the memory configuration came from (`--plan`): `Fixed`
    /// requests carry it in the fields above; `Auto` requests arrive
    /// with dataset statistics instead, and the server materializes the
    /// planner's choice into those fields before keying. The mode joins
    /// the key (planned rows form their own `+plan` record group); the
    /// raw stats blob does not — two submissions whose stats plan to
    /// the same configuration address the same cached result.
    pub plan: PlanMode,
    /// The encoded `capstan_tensor::stats::TensorStats` blob an `Auto`
    /// submission carried (`None` on fixed requests). Kept for the
    /// planner, never hashed.
    pub stats: Option<String>,
}

impl Default for RunSpec {
    /// A spec with no experiment and every other field at its default.
    fn default() -> RunSpec {
        RunSpec::new("")
    }
}

impl RunSpec {
    /// A spec for `experiment` with every other field at the CLI
    /// default: `medium` scale, analytic timing, synthetic addressing,
    /// one channel.
    pub fn new(experiment: &str) -> RunSpec {
        RunSpec {
            experiment: experiment.to_string(),
            scale: "medium".to_string(),
            mem: MemTiming::default(),
            addresses: MemAddressing::default(),
            channels: 1,
            tenants: 1,
            plan: PlanMode::default(),
            stats: None,
        }
    }

    /// Sets the field with `SUBMIT` key `key` (see [`FIELDS`]) from its
    /// spelling `value`. This is the one place a configuration value is
    /// validated: the scale through [`Suite::parse`], the modes through
    /// their tag parsers, `channels` in `1..=`[`MAX_CHANNELS`] and
    /// `tenants` in `1..=`[`MAX_TENANTS`] (the memory driver's own cap,
    /// checked up front so a bad count is a typed error, not a panic).
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        match key {
            "scale" => {
                Suite::parse(value)?;
                self.scale = value.to_string();
            }
            "mem" => {
                self.mem = MemTiming::parse(value)
                    .ok_or_else(|| format!("unknown memory mode `{value}` (analytic|cycle)"))?;
            }
            "addresses" => {
                self.addresses = MemAddressing::parse(value).ok_or_else(|| {
                    format!("unknown addressing mode `{value}` (synthetic|recorded)")
                })?;
            }
            "channels" => self.channels = count(key, value, MAX_CHANNELS)?,
            "tenants" => self.tenants = count(key, value, MAX_TENANTS)?,
            "plan" => {
                self.plan = PlanMode::parse(value)
                    .ok_or_else(|| format!("unknown plan mode `{value}` (fixed|auto)"))?;
            }
            _ => return Err(format!("`{key}` is not a run-configuration field")),
        }
        Ok(())
    }

    /// The `plan=auto` rule: a planned run leaves the [`PLANNED`] fields
    /// to the planner, so it must not also spell one by hand (the
    /// planner would silently override it). `given` says whether a
    /// field was spelled.
    pub fn check_planned(&self, given: impl Fn(&str) -> bool) -> Result<(), String> {
        if self.plan != PlanMode::Auto {
            return Ok(());
        }
        match FIELDS
            .iter()
            .find(|(key, ..)| PLANNED.contains(key) && given(key))
        {
            Some((key, flag, _)) => Err(format!(
                "plan=auto chooses the memory configuration; drop `{key}=` (`{flag}`)"
            )),
            None => Ok(()),
        }
    }

    /// The `experiments` flags spelling every field of this spec (the
    /// server's worker command line).
    pub fn flags(&self) -> Vec<String> {
        FIELDS
            .iter()
            .flat_map(|(_, flag, spell)| [flag.to_string(), spell(self)])
            .collect()
    }

    /// The parsed suite, or a message for an invalid scale spec.
    pub fn suite(&self) -> Result<Suite, String> {
        Suite::parse(&self.scale)
    }

    /// The bench-row suffix this memory configuration runs under
    /// (shared definition: [`mem_record_suffix`]).
    pub fn suffix(&self) -> String {
        mem_record_suffix(
            self.mem,
            self.addresses,
            self.channels,
            self.tenants,
            self.plan,
        )
    }

    /// The bench-record row name this spec produces: the experiment
    /// name plus the record-group suffix.
    pub fn row_name(&self) -> String {
        format!("{}{}", self.experiment, self.suffix())
    }

    /// The content-addressed cache key: FNV-1a-64 over the canonical
    /// encoding of experiment name, dataset fingerprint, and memory
    /// configuration. Fails only when the scale spec does not parse
    /// (the protocol layer rejects such requests before keying).
    pub fn cache_key(&self) -> Result<u64, String> {
        let suite = self.suite()?;
        let mut w = SnapshotWriter::new();
        write_str(&mut w, KEY_TAG);
        write_str(&mut w, &self.experiment);
        // Dataset fingerprint: the generated inputs are a pure function
        // of the suite's scale factors (exact f64 bits, see
        // `Suite::fingerprint`), so it stands in for hashing the
        // datasets themselves.
        w.write_u64(suite.fingerprint());
        write_str(&mut w, self.mem.tag());
        write_str(&mut w, self.addresses.tag());
        w.write_u64(self.channels as u64);
        w.write_u64(self.tenants as u64);
        // The plan *mode* is keyed (planned rows are their own record
        // group) but the stats blob is not: the server has already
        // materialized the planned configuration into the hashed fields
        // above, so any data that plans identically — or a fixed request
        // spelling the same configuration by hand under `Auto`'s suffix —
        // must hit the same cache line.
        write_str(&mut w, self.plan.tag());
        Ok(fnv1a_64(w.as_bytes()))
    }
}

/// Parses a count in `1..=max` for field `key`.
fn count(key: &str, value: &str, max: usize) -> Result<usize, String> {
    value
        .parse()
        .ok()
        .filter(|n| (1..=max).contains(n))
        .ok_or_else(|| format!("{key} must be an integer in 1..={max}, got `{value}`"))
}

/// Length-prefixed string write (the writer has primitive-only
/// methods; strings ride as counted bytes so `ab`+`c` can never alias
/// `a`+`bc`).
fn write_str(w: &mut SnapshotWriter, s: &str) {
    w.write_len(s.len());
    for b in s.bytes() {
        w.write_u8(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_stable_and_spelling_invariant() {
        let spec = RunSpec::new("fig7");
        assert_eq!(spec.cache_key().unwrap(), spec.cache_key().unwrap());
        let mut small = RunSpec::new("fig7");
        small.scale = "small".to_string();
        let mut spelled = RunSpec::new("fig7");
        spelled.scale = "la=4e-2,graph=1.5e-2,spmspm=5e-1,conv=1e-1".to_string();
        assert_eq!(small.cache_key().unwrap(), spelled.cache_key().unwrap());
    }

    #[test]
    fn every_single_field_change_moves_the_key() {
        let base = RunSpec::new("fig7");
        let key = base.cache_key().unwrap();
        let mut other = base.clone();
        other.experiment = "fig4".to_string();
        assert_ne!(other.cache_key().unwrap(), key);
        let mut other = base.clone();
        other.scale = "small".to_string();
        assert_ne!(other.cache_key().unwrap(), key);
        let mut other = base.clone();
        other.mem = MemTiming::CycleLevel;
        assert_ne!(other.cache_key().unwrap(), key);
        let mut other = base.clone();
        other.addresses = MemAddressing::Recorded;
        assert_ne!(other.cache_key().unwrap(), key);
        let mut other = base.clone();
        other.channels = 4;
        assert_ne!(other.cache_key().unwrap(), key);
        let mut other = base.clone();
        other.tenants = 2;
        assert_ne!(other.cache_key().unwrap(), key);
        let mut other = base.clone();
        other.plan = PlanMode::Auto;
        assert_ne!(other.cache_key().unwrap(), key);
    }

    #[test]
    fn stats_blob_is_not_keyed_but_plan_mode_is() {
        // Two auto submissions with different stats blobs that plan to
        // the same materialized configuration must share a cache line.
        let mut a = RunSpec::new("fig7");
        a.plan = PlanMode::Auto;
        a.stats = Some("s1:10:10:5:3:2:6:4:5:4".to_string());
        let mut b = a.clone();
        b.stats = Some("s1:12:12:6:4:2:8:5:6:5".to_string());
        assert_eq!(a.cache_key().unwrap(), b.cache_key().unwrap());
        assert_ne!(
            a.cache_key().unwrap(),
            RunSpec::new("fig7").cache_key().unwrap()
        );
    }

    #[test]
    fn row_names_carry_the_record_group_suffix() {
        let mut spec = RunSpec::new("table13-atomics");
        assert_eq!(spec.row_name(), "table13-atomics");
        spec.mem = MemTiming::CycleLevel;
        spec.channels = 4;
        assert_eq!(spec.row_name(), "table13-atomics+cycle+ch4");
        spec.tenants = 2;
        assert_eq!(spec.row_name(), "table13-atomics+cycle+ch4+mt2");
        spec.plan = PlanMode::Auto;
        assert_eq!(spec.row_name(), "table13-atomics+cycle+ch4+mt2+plan");
    }

    #[test]
    fn bad_scales_fail_key_derivation() {
        let mut spec = RunSpec::new("fig7");
        spec.scale = "la=NaN,graph=0.015,spmspm=0.5,conv=0.1".to_string();
        assert!(spec.cache_key().is_err());
    }
}
