//! Single-line repro encoding.
//!
//! A failing scenario is emitted as one flat JSON object per line — easy
//! to copy out of CI logs into `simulate fuzz --repro '<line>'` or to
//! append to `tests/fuzz_corpus.txt`. Every field is an integer (the
//! [`Scenario`] encoding is all-integer by design), the data source is a
//! kind string plus three positional parameters, and the writer emits keys
//! in one fixed order, so `parse_line(to_line(s)) == s` holds exactly and
//! corpus diffs stay minimal. The parser is a tiny scanner over this
//! self-generated dialect, not a general JSON parser.

use wsn_sim::{DataSource, Scenario};

use crate::invariants::{AFFINE_OFFSET, AFFINE_SCALE};

/// Serializes a scenario as one flat JSON line.
///
/// The `p1..p3` parameters depend on the source kind:
/// `sinusoid: (period, noise_permille, 0)`, `walk: (range_size, step, 0)`,
/// `regime: (range_size, phase_len, drift)`, `pressure: (skip, 0|1, 0)`.
pub fn to_line(s: &Scenario) -> String {
    let (p1, p2, p3): (i128, i128, i128) = match s.source {
        DataSource::Sinusoid {
            period,
            noise_permille,
        } => (period as i128, noise_permille as i128, 0),
        DataSource::Walk { range_size, step } => (range_size as i128, step as i128, 0),
        DataSource::Regime {
            range_size,
            phase_len,
            drift,
        } => (range_size as i128, phase_len as i128, drift as i128),
        DataSource::Pressure { skip, pessimistic } => (skip as i128, pessimistic as i128, 0),
    };
    format!(
        "{{\"seed\":{},\"nodes\":{},\"range_milli\":{},\"rounds\":{},\"runs\":{},\
         \"phi_milli\":{},\"loss_milli\":{},\"retries\":{},\"recovery\":{},\
         \"failure_milli\":{},\"eps_milli\":{},\"capacity\":{},\"queries\":{},\
         \"mobility_milli\":{},\"churn_milli\":{},\"drift_milli\":{},\"duty_milli\":{},\
         \"source\":\"{}\",\"p1\":{},\"p2\":{},\"p3\":{}}}",
        s.seed,
        s.nodes,
        s.range_milli,
        s.rounds,
        s.runs,
        s.phi_milli,
        s.loss_milli,
        s.retries,
        s.recovery,
        s.failure_milli,
        s.eps_milli,
        s.capacity,
        s.queries,
        s.mobility_milli,
        s.churn_milli,
        s.drift_milli,
        s.duty_milli,
        s.source.name(),
        p1,
        p2,
        p3
    )
}

/// Every key of the dialect, in [`to_line`]'s order.
const KEYS: [&str; 21] = [
    "seed",
    "nodes",
    "range_milli",
    "rounds",
    "runs",
    "phi_milli",
    "loss_milli",
    "retries",
    "recovery",
    "failure_milli",
    "eps_milli",
    "capacity",
    "queries",
    "mobility_milli",
    "churn_milli",
    "drift_milli",
    "duty_milli",
    "source",
    "p1",
    "p2",
    "p3",
];

/// The raw values of one repro line, by key.
struct Fields<'a>([Option<&'a str>; KEYS.len()]);

impl<'a> Fields<'a> {
    /// Splits the inside of a flat JSON object into its raw values,
    /// rejecting a pair without `:`, an unquoted, unknown or repeated key.
    fn parse(inner: &'a str) -> Result<Self, String> {
        let mut values = [None; KEYS.len()];
        for pair in inner.split(',') {
            let (key, value) = pair
                .split_once(':')
                .ok_or_else(|| format!("field without `:`: `{}`", pair.trim()))?;
            let key = key.trim();
            let name = key
                .strip_prefix('"')
                .and_then(|k| k.strip_suffix('"'))
                .ok_or_else(|| format!("key `{key}` is not a quoted string"))?;
            let slot = KEYS
                .iter()
                .position(|&k| k == name)
                .ok_or_else(|| format!("unknown field `{name}`"))?;
            if values[slot].replace(value.trim()).is_some() {
                return Err(format!("repeated field `{name}`"));
            }
        }
        Ok(Fields(values))
    }

    /// The raw value of `key` (one of [`KEYS`]), if present.
    fn get(&self, key: &str) -> Option<&'a str> {
        self.0[KEYS.iter().position(|&k| k == key).expect("a dialect key")]
    }

    /// The value of `key`, converted to its field's type `T`.
    fn int<T: TryFrom<i128>>(&self, key: &str) -> Result<T, String> {
        let raw = self
            .get(key)
            .ok_or_else(|| format!("missing field `{key}`"))?;
        let v = raw
            .parse::<i128>()
            .map_err(|e| format!("field `{key}`: {e}"))?;
        fit(v, key)
    }

    /// Like [`Fields::int`], but a *missing* key falls back to `default`.
    /// Used for fields added after the corpus format was first pinned
    /// (`eps_milli`, `capacity`, `queries`, the dynamics rates), so older
    /// corpus lines keep parsing — and keep expanding to the same worlds
    /// they always did. A present-but-malformed value is still an error.
    fn int_or<T: TryFrom<i128>>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            Some(_) => self.int(key),
            None => Ok(default),
        }
    }
}

/// `v`, the value of `key`, converted to its field's type `T`.
fn fit<T: TryFrom<i128>>(v: i128, key: &str) -> Result<T, String> {
    T::try_from(v).map_err(|_| format!("field `{key}` out of range: {v}"))
}

/// The largest walk or regime `range_size` a repro line may ask for: the
/// fuzzer's affine metamorphic run maps every value `v` to
/// [`AFFINE_SCALE`]` · v + `[`AFFINE_OFFSET`], and the world's largest
/// value, `range_size - 1`, must map into an `i64`.
pub const MAX_RANGE_SIZE: u64 = ((i64::MAX - AFFINE_OFFSET) / AFFINE_SCALE) as u64 + 1;

/// A walk's or regime's `range_size` from `p1`: at most [`MAX_RANGE_SIZE`].
fn range_size(p1: i128) -> Result<u64, String> {
    let size: u64 = fit(p1, "p1")?;
    if size > MAX_RANGE_SIZE {
        return Err(format!(
            "field `p1` out of range: {size} is above {MAX_RANGE_SIZE}, the largest \
             range_size whose affine image {AFFINE_SCALE}·(range_size − 1) + {AFFINE_OFFSET} \
             fits an i64"
        ));
    }
    Ok(size)
}

/// Parses one repro line back into a scenario. Accepts exactly the
/// dialect [`to_line`] produces, keys in any order; anything else — a
/// missing, repeated or unknown key, a value outside its field's type —
/// is an `Err` naming the first offending field.
pub fn parse_line(line: &str) -> Result<Scenario, String> {
    let inner = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("repro line must be a flat JSON object")?;
    let f = Fields::parse(inner)?;
    // u64 seeds can exceed i64, so go through i128 uniformly.
    let seed: u64 = f.int("seed")?;
    let nodes: usize = f.int("nodes")?;
    let source_raw = f.get("source").ok_or("missing field `source`")?;
    let kind = source_raw
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("field `source`: expected a quoted string, got `{source_raw}`"))?;
    let p1: i128 = f.int("p1")?;
    let p2: i128 = f.int("p2")?;
    let p3: i128 = f.int("p3")?;
    let source = match kind {
        "sinusoid" => DataSource::Sinusoid {
            period: fit(p1, "p1")?,
            noise_permille: fit(p2, "p2")?,
        },
        "walk" => DataSource::Walk {
            range_size: range_size(p1)?,
            step: fit(p2, "p2")?,
        },
        "regime" => DataSource::Regime {
            range_size: range_size(p1)?,
            phase_len: fit(p2, "p2")?,
            drift: fit(p3, "p3")?,
        },
        "pressure" => DataSource::Pressure {
            skip: fit(p1, "p1")?,
            pessimistic: match p2 {
                0 => false,
                1 => true,
                _ => return Err(format!("field `p2`: pessimistic is 0 or 1, not {p2}")),
            },
        },
        other => return Err(format!("unknown source kind `{other}`")),
    };
    Ok(Scenario {
        seed,
        nodes,
        range_milli: f.int("range_milli")?,
        rounds: f.int("rounds")?,
        runs: f.int("runs")?,
        phi_milli: f.int("phi_milli")?,
        loss_milli: f.int("loss_milli")?,
        retries: f.int("retries")?,
        recovery: f.int("recovery")?,
        failure_milli: f.int("failure_milli")?,
        eps_milli: f.int_or("eps_milli", 100)?,
        capacity: f.int_or("capacity", 0)?,
        queries: f.int_or("queries", 1)?,
        mobility_milli: f.int_or("mobility_milli", 0)?,
        churn_milli: f.int_or("churn_milli", 0)?,
        drift_milli: f.int_or("drift_milli", 0)?,
        duty_milli: f.int_or("duty_milli", 0)?,
        source,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn round_trips_every_generated_scenario() {
        for i in 0..256 {
            let s = gen::scenario(0xFEED, i);
            let line = to_line(&s);
            assert_eq!(parse_line(&line).unwrap(), s, "{line}");
        }
    }

    #[test]
    fn round_trips_extreme_fields() {
        let s = Scenario {
            seed: u64::MAX,
            nodes: 1,
            range_milli: 4000,
            rounds: 1,
            runs: 1,
            phi_milli: 999,
            loss_milli: 1000,
            retries: 0,
            recovery: 0,
            failure_milli: 0,
            eps_milli: 1000,
            capacity: 32,
            queries: 16,
            mobility_milli: 1000,
            churn_milli: 200,
            drift_milli: 1000,
            duty_milli: 1000,
            source: DataSource::Regime {
                range_size: 2048,
                phase_len: 3,
                drift: -8,
            },
        };
        assert_eq!(parse_line(&to_line(&s)).unwrap(), s);
    }

    #[test]
    fn pre_sketch_lines_parse_with_default_tolerances() {
        // A corpus line from before the sketch fields existed: no
        // `eps_milli`/`capacity` keys. Must parse to the documented
        // defaults, not fail.
        let old = "{\"seed\":9,\"nodes\":5,\"range_milli\":2500,\"rounds\":3,\"runs\":1,\
                   \"phi_milli\":500,\"loss_milli\":0,\"retries\":0,\"recovery\":0,\
                   \"failure_milli\":0,\"source\":\"sinusoid\",\"p1\":16,\"p2\":100,\"p3\":0}";
        let s = parse_line(old).unwrap();
        assert_eq!(s.eps_milli, 100);
        assert_eq!(s.capacity, 0);
        assert_eq!(s.queries, 1);
        // Pre-dynamics lines default to the fully static world.
        assert_eq!(s.mobility_milli, 0);
        assert_eq!(s.churn_milli, 0);
        assert_eq!(s.drift_milli, 0);
        assert_eq!(s.duty_milli, 0);
        assert!(!s.is_dynamic_world());
        // A present-but-malformed value is still rejected.
        let bad = old.replace("\"failure_milli\":0", "\"failure_milli\":0,\"eps_milli\":x");
        assert!(parse_line(&bad).is_err());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_line("").is_err());
        assert!(parse_line("not json").is_err());
        assert!(parse_line("{\"seed\":1}").is_err(), "missing fields");
        let bad_kind = to_line(&gen::scenario(1, 0)).replace("sinusoid", "volcano");
        if bad_kind.contains("volcano") {
            assert!(parse_line(&bad_kind).is_err());
        }
        let s = gen::scenario(1, 0);
        let negative = to_line(&s).replace(&format!("\"nodes\":{}", s.nodes), "\"nodes\":-3");
        assert!(parse_line(&negative).is_err(), "negative counts rejected");

        // Source parameters outside their fields' types are rejected, not
        // wrapped; a walk's or regime's range_size stops at MAX_RANGE_SIZE,
        // whose affine image is the largest that fits an i64.
        let (scale, offset) = (i128::from(AFFINE_SCALE), i128::from(AFFINE_OFFSET));
        let image = |size: u64| scale * (size as i128 - 1) + offset;
        assert!(image(MAX_RANGE_SIZE) <= i64::MAX.into());
        assert!(image(MAX_RANGE_SIZE + 1) > i64::MAX.into());
        let with = |source| to_line(&Scenario { source, ..s });
        let walk = with(DataSource::Walk {
            range_size: 64,
            step: 3,
        });
        let regime = with(DataSource::Regime {
            range_size: 64,
            phase_len: 5,
            drift: -2,
        });
        let pressure = with(DataSource::Pressure {
            skip: 1,
            pessimistic: true,
        });
        let sinusoid = with(DataSource::Sinusoid {
            period: 16,
            noise_permille: 100,
        });
        let widest = walk.replace("\"p1\":64", "\"p1\":3074457345618258270");
        assert_eq!(
            parse_line(&widest).unwrap().source,
            DataSource::Walk {
                range_size: MAX_RANGE_SIZE,
                step: 3
            }
        );
        for bad in [
            walk.replace("\"p1\":64", "\"p1\":-1"),
            walk.replace("\"p1\":64", "\"p1\":3074457345618258271"),
            walk.replace("\"p1\":64", "\"p1\":9223372036854775807"),
            walk.replace("\"p1\":64", "\"p1\":9223372036854775808"),
            regime.replace("\"p1\":64", "\"p1\":9223372036854775807"),
            walk.replace("\"p2\":3", "\"p2\":9223372036854775808"),
            regime.replace("\"p1\":64", "\"p1\":-1"),
            regime.replace("\"p2\":5", "\"p2\":4294967296"),
            regime.replace("\"p3\":-2", "\"p3\":-9223372036854775809"),
            pressure.replace("\"p1\":1,", "\"p1\":4294967297,"),
            pressure.replace("\"p2\":1", "\"p2\":7"),
            pressure.replace("\"p2\":1", "\"p2\":-1"),
            sinusoid.replace("\"p1\":16", "\"p1\":-16"),
            sinusoid.replace("\"p2\":100", "\"p2\":4294967396"),
        ] {
            assert!(parse_line(&bad).is_err(), "{bad}");
        }

        // A repeated or unknown key is rejected, as is a key without quotes.
        let line = to_line(&s);
        for bad in [
            line.replacen("{\"seed\":", "{\"seed\":9,\"seed\":", 1),
            line.replacen("\"p3\":0}", "\"p3\":0,\"p3\":0}", 1),
            line.replacen("{", "{\"colour\":1,", 1),
            line.replacen("\"seed\"", "seed", 1),
        ] {
            assert!(parse_line(&bad).is_err(), "{bad}");
        }
    }
}
