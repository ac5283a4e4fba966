//! Seeded input data and input fingerprints.
//!
//! The seed picks data, never size: every generator here replaces the
//! initial values of named variables and leaves the system's structure
//! alone, so every seed does the same amount of work and timings of
//! different seeds compare.

use std::fmt::{self, Write as _};
use std::hash::{DefaultHasher, Hasher};

use ifsyn_spec::rng::SplitMix64;
use ifsyn_spec::{BitVec, System, Ty, Value};

/// The seed of variant `k` of a run seeded with `seed`: the `k`-th draw
/// of the SplitMix64 stream, so variants are distinct for distinct `k`.
pub fn variant_seed(seed: u64, k: u64) -> u64 {
    SplitMix64::new(seed.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15))).next_u64()
}

/// A uniformly random value of type `ty`; integers span their signed
/// range.
pub fn random_value(ty: &Ty, rng: &mut SplitMix64) -> Value {
    match ty {
        Ty::Bit => Value::Bit(rng.bool()),
        Ty::Bits(w) => Value::Bits(BitVec::from_bits_lsb_first((0..*w).map(|_| rng.bool()))),
        Ty::Int(w) => {
            let half = 1i64 << ((*w).clamp(1, 63) - 1);
            Value::int(rng.range_i64(-half, half - 1), *w)
        }
        Ty::Array { elem, len } => {
            Value::Array((0..*len).map(|_| random_value(elem, rng)).collect())
        }
    }
}

/// Fresh random initial values for the named variables of `system`, in
/// the order given. Names the system does not declare are skipped.
pub fn draw_initial(system: &System, names: &[String], seed: u64) -> Vec<(String, Value)> {
    let mut rng = SplitMix64::new(seed);
    names
        .iter()
        .filter_map(|name| {
            let id = system.variable_by_name(name)?;
            let value = random_value(&system.variable(id).ty, &mut rng);
            Some((name.clone(), value))
        })
        .collect()
}

/// Sets the initial values drawn by [`draw_initial`].
pub fn apply_initial(system: &mut System, data: &[(String, Value)]) {
    for (name, value) in data {
        if let Some(id) = system.variable_by_name(name) {
            system.variables[id.index()].init = Some(value.clone());
        }
    }
}

/// Feeds formatted text straight into a hasher, so fingerprinting a
/// large system allocates no string.
struct HashWriter(DefaultHasher);

impl fmt::Write for HashWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

/// A deterministic fingerprint of one simulation or exploration input:
/// the whole system as the program receives it, plus a tag naming the
/// configuration it runs under.
pub fn fingerprint(system: &System, tag: &str) -> u64 {
    let mut w = HashWriter(DefaultHasher::new());
    write!(w, "{system:?}|{tag}").expect("hashing never fails");
    w.0.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_differ_and_repeat() {
        assert_eq!(variant_seed(1, 0), variant_seed(1, 0));
        assert_ne!(variant_seed(1, 0), variant_seed(1, 1));
        assert_ne!(variant_seed(1, 0), variant_seed(2, 0));
    }

    #[test]
    fn random_values_have_the_declared_type() {
        let mut rng = SplitMix64::new(7);
        for ty in [
            Ty::Bit,
            Ty::Bits(16),
            Ty::Int(16),
            Ty::array(Ty::Bits(8), 4),
        ] {
            assert_eq!(random_value(&ty, &mut rng).ty(), ty);
        }
        for _ in 0..1000 {
            let v = random_value(&Ty::Int(8), &mut rng).as_i64().expect("int");
            assert!((-128..=127).contains(&v));
        }
    }
}
