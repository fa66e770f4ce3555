//! Seeded input generation. Everything the library sees — the sparse
//! tensor, the dense factors and the `.tns` file — is made here from the
//! command-line seed before any timer starts, with a generator of the
//! benchmark's own so a change to the library's generators cannot move
//! the inputs.

use spttn::tensor::{CooTensor, DenseTensor};
use std::collections::HashSet;
use std::io::Write;
use std::path::Path;

/// SplitMix64: small, fast and fully specified, so one seed gives the
/// same stream on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is below 2^-50 for the sizes
    /// used here and, being deterministic, does not affect repeatability).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[-1, 1)`.
    pub fn sym(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64) * (2.0 / (1u64 << 53) as f64) - 1.0
    }
}

/// A sparse tensor with exactly `nnz` distinct uniformly random
/// coordinates and values in `[-1, 1)`, sorted in natural mode order.
/// The product of `dims` must fit in a `u64`.
pub fn uniform_coo(rng: &mut Rng, dims: &[usize], nnz: usize) -> CooTensor {
    let mut coo = CooTensor::new(dims).expect("benchmark dims are nonzero");
    let mut seen: HashSet<u64> = HashSet::with_capacity(2 * nnz);
    let mut coord = vec![0usize; dims.len()];
    while seen.len() < nnz {
        let mut key = 0u64;
        for (c, &d) in coord.iter_mut().zip(dims) {
            *c = rng.below(d);
            key = key * d as u64 + *c as u64;
        }
        if seen.insert(key) {
            coo.push(&coord, rng.sym()).expect("coordinate within dims");
        }
    }
    let natural: Vec<usize> = (0..dims.len()).collect();
    coo.sort_dedup(&natural)
        .expect("natural order is a permutation");
    coo
}

/// A dense tensor with entries in `[-1, 1)`.
pub fn dense(rng: &mut Rng, dims: &[usize]) -> DenseTensor {
    let len: usize = dims.iter().product();
    let data: Vec<f64> = (0..len).map(|_| rng.sym()).collect();
    DenseTensor::from_data(dims, data).expect("length matches dims")
}

/// Write `coo` as a FROSTT `.tns` file: 1-based coordinates, one entry
/// a line. `{}` prints the shortest decimal that reads back to the same
/// `f64`, so the file round-trips exactly.
pub fn write_tns(coo: &CooTensor, path: &Path) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (coord, v) in coo.iter() {
        for c in coord {
            write!(w, "{} ", c + 1)?;
        }
        writeln!(w, "{v}")?;
    }
    w.flush()
}

/// FNV-1a over the exact bytes of the inputs, for reproducibility
/// checks: equal fingerprints mean byte-identical inputs.
#[derive(Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn coo(&mut self, coo: &CooTensor) {
        self.usizes(coo.dims());
        self.usizes(coo.coords());
        self.f64s(coo.vals());
    }

    pub fn dense(&mut self, t: &DenseTensor) {
        self.usizes(t.dims());
        self.f64s(t.as_slice());
    }

    fn usizes(&mut self, xs: &[usize]) {
        for &x in xs {
            self.bytes(&(x as u64).to_le_bytes());
        }
    }

    fn f64s(&mut self, xs: &[f64]) {
        for &x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}
