//! The output check, written independently of the library: a
//! sparse-aware reference contraction and a NaN/inf-aware comparison.
//! Nothing here runs inside a timed region.

use spttn::tensor::{CooTensor, DenseTensor};
use std::collections::HashMap;

/// Largest normwise relative error an output may have and still count
/// as correct.
pub const TOLERANCE: f64 = 1e-9;

/// One tensor reference `Name[i,j,...]` of an einsum expression.
pub struct Ref {
    pub name: String,
    pub indices: Vec<String>,
}

/// `S[..]*F1[..]*...->O[..]`: the first input is the sparse tensor,
/// every other input is dense.
pub struct Einsum {
    pub inputs: Vec<Ref>,
    pub output: Ref,
}

fn parse_ref(s: &str) -> Ref {
    let s = s.trim();
    let open = s.find('[').expect("reference has '['");
    let inner = s[open + 1..].trim_end_matches(']');
    Ref {
        name: s[..open].trim().to_string(),
        indices: inner.split(',').map(|i| i.trim().to_string()).collect(),
    }
}

impl Einsum {
    /// Parse the benchmark's own fixed expressions (`a*b->c` form).
    pub fn parse(expr: &str) -> Einsum {
        let (lhs, rhs) = expr.split_once("->").expect("expression has '->'");
        Einsum {
            inputs: lhs.split('*').map(parse_ref).collect(),
            output: parse_ref(rhs),
        }
    }

    fn dense_only_indices(&self) -> Vec<String> {
        let sparse = &self.inputs[0].indices;
        let mut out: Vec<String> = Vec::new();
        for r in &self.inputs[1..] {
            for i in &r.indices {
                if !sparse.contains(i) && !out.contains(i) {
                    out.push(i.clone());
                }
            }
        }
        out
    }
}

/// Offsets of one tensor reference: the part contributed by the sparse
/// indices (recomputed per nonzero) and a table over the dense-only
/// index space (computed once).
struct Addressing {
    sparse_strides: Vec<(usize, usize)>,
    dense_table: Vec<usize>,
}

fn addressing(
    r: &Ref,
    t_strides: &[usize],
    sparse: &[String],
    dense: &[(String, usize)],
) -> Addressing {
    let mut sparse_strides = Vec::new();
    let mut dense_strides = vec![0usize; dense.len()];
    for (pos, idx) in r.indices.iter().enumerate() {
        if let Some(s) = sparse.iter().position(|n| n == idx) {
            sparse_strides.push((s, t_strides[pos]));
        } else {
            let d = dense
                .iter()
                .position(|(n, _)| n == idx)
                .expect("index is bound");
            dense_strides[d] += t_strides[pos];
        }
    }
    let combos: usize = dense.iter().map(|(_, d)| d).product();
    let mut dense_table = Vec::with_capacity(combos);
    let mut digit = vec![0usize; dense.len()];
    for _ in 0..combos {
        dense_table.push(digit.iter().zip(&dense_strides).map(|(v, s)| v * s).sum());
        for k in (0..digit.len()).rev() {
            digit[k] += 1;
            if digit[k] < dense[k].1 {
                break;
            }
            digit[k] = 0;
        }
    }
    Addressing {
        sparse_strides,
        dense_table,
    }
}

/// Reference contraction: for each nonzero, loop over the dense index
/// space of the indices the sparse tensor does not carry.
pub fn reference(
    e: &Einsum,
    dims: &HashMap<String, usize>,
    sparse: &CooTensor,
    factors: &[(&str, &DenseTensor)],
) -> DenseTensor {
    let sparse_names = &e.inputs[0].indices;
    let dense: Vec<(String, usize)> = e
        .dense_only_indices()
        .into_iter()
        .map(|n| {
            let d = dims[&n];
            (n, d)
        })
        .collect();
    let out_dims: Vec<usize> = e.output.indices.iter().map(|n| dims[n]).collect();
    let mut out = DenseTensor::zeros(&out_dims);
    let out_addr = addressing(&e.output, out.strides(), sparse_names, &dense);
    let tensors: Vec<&DenseTensor> = e.inputs[1..]
        .iter()
        .map(|r| {
            factors
                .iter()
                .find(|(n, _)| *n == r.name)
                .map(|(_, t)| *t)
                .expect("every dense input is given")
        })
        .collect();
    let addrs: Vec<Addressing> = e.inputs[1..]
        .iter()
        .zip(&tensors)
        .map(|(r, t)| addressing(r, t.strides(), sparse_names, &dense))
        .collect();
    let combos = out_addr.dense_table.len();
    let data = out.as_mut_slice();
    let mut bases = vec![0usize; addrs.len()];
    for (coord, v) in sparse.iter() {
        // The sparse tensor's modes are in its written index order.
        let base = |a: &Addressing| {
            a.sparse_strides
                .iter()
                .map(|&(s, st)| coord[s] * st)
                .sum::<usize>()
        };
        for (b, a) in bases.iter_mut().zip(&addrs) {
            *b = base(a);
        }
        let ob = base(&out_addr);
        for c in 0..combos {
            let mut p = v;
            for ((a, t), b) in addrs.iter().zip(&tensors).zip(&bases) {
                p *= t.as_slice()[b + a.dense_table[c]];
            }
            data[ob + out_addr.dense_table[c]] += p;
        }
    }
    out
}

/// Result of comparing one output against its reference.
#[derive(Clone, Copy, Debug, Default)]
pub struct Comparison {
    /// Elements that disagree: beyond [`TOLERANCE`], or any NaN, or an
    /// infinity the other side does not have.
    pub mismatches: usize,
    /// Largest `|got - want| / max|want|`; infinite when a non-finite
    /// value disagrees.
    pub max_rel_err: f64,
}

impl Comparison {
    pub fn ok(&self) -> bool {
        self.mismatches == 0
    }
}

/// NaN/inf-aware comparison. A NaN on either side never matches (the
/// reference of finite inputs is finite); infinities match only an
/// identical infinity; finite values are held to [`TOLERANCE`] relative
/// to the largest reference magnitude.
pub fn compare(got: &[f64], want: &[f64]) -> Comparison {
    if got.len() != want.len() {
        return Comparison {
            mismatches: got.len().max(want.len()),
            max_rel_err: f64::INFINITY,
        };
    }
    let scale = want
        .iter()
        .filter(|w| w.is_finite())
        .fold(
            f64::MIN_POSITIVE,
            |m, w| if w.abs() > m { w.abs() } else { m },
        );
    let mut c = Comparison::default();
    for (&g, &w) in got.iter().zip(want) {
        let rel = if g.is_finite() && w.is_finite() {
            (g - w).abs() / scale
        } else if g == w {
            0.0
        } else {
            f64::INFINITY
        };
        if rel > TOLERANCE {
            c.mismatches += 1;
        }
        c.max_rel_err = c.max_rel_err.max(rel);
    }
    c
}

/// Check [`reference`] against the library's brute-force
/// `naive_einsum` on tiny shapes of `expr`. Index sizes cycle through
/// 2..=5 so every mode differs from its neighbours.
pub fn self_test(expr: &str, seed: u64) -> Result<(), String> {
    use crate::inputs::{dense, uniform_coo, Rng};
    let e = Einsum::parse(expr);
    let mut dims: HashMap<String, usize> = HashMap::new();
    for r in &e.inputs {
        for i in &r.indices {
            let next = 2 + dims.len() % 4;
            dims.entry(i.clone()).or_insert(next);
        }
    }
    let mut rng = Rng::new(seed);
    let sdims: Vec<usize> = e.inputs[0].indices.iter().map(|i| dims[i]).collect();
    let cells: usize = sdims.iter().product();
    let coo = uniform_coo(&mut rng, &sdims, cells / 2);
    let factors: Vec<(String, DenseTensor)> = e.inputs[1..]
        .iter()
        .map(|r| {
            let d: Vec<usize> = r.indices.iter().map(|i| dims[i]).collect();
            (r.name.clone(), dense(&mut rng, &d))
        })
        .collect();
    let named: Vec<(&str, &DenseTensor)> = factors.iter().map(|(n, t)| (n.as_str(), t)).collect();
    let ours = reference(&e, &dims, &coo, &named);

    let pairs: Vec<(&str, usize)> = dims.iter().map(|(n, &d)| (n.as_str(), d)).collect();
    let shapes = spttn::Shapes::new()
        .with_dims(&pairs)
        .with_nnz(coo.nnz() as u64);
    let kernel = spttn_net::Network::parse(expr)
        .and_then(|n| n.kernel(&shapes))
        .map_err(|err| format!("self-test kernel for {expr}: {err}"))?;
    let sparse_dense = coo.to_dense();
    let inputs: Vec<&DenseTensor> = kernel
        .inputs
        .iter()
        .enumerate()
        .map(|(slot, r)| {
            if slot == kernel.sparse_input {
                &sparse_dense
            } else {
                named
                    .iter()
                    .find(|(n, _)| *n == r.name)
                    .map(|(_, t)| *t)
                    .expect("factor generated")
            }
        })
        .collect();
    let oracle = spttn::exec::naive_einsum(&kernel, &inputs)
        .map_err(|err| format!("naive_einsum: {err}"))?;
    let c = compare(ours.as_slice(), oracle.as_slice());
    if !c.ok() {
        return Err(format!(
            "reference disagrees with naive_einsum on {expr}: {} mismatches, max rel err {:e}",
            c.mismatches, c.max_rel_err
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_naive_einsum_on_every_expression() {
        for (s, expr) in [
            "T[i,j,k]*B[j,a]*C[k,a]->A[i,a]",
            "T[i,j,k]*A[i,a]*C[k,a]->B[j,a]",
            "T[i,j,k]*A[i,a]*B[j,a]->C[k,a]",
            "T[i,j,k]*U[j,r]*V[k,s]->Y[i,r,s]",
            "T[i,j,k]*A[j,r]*B[k,r]*C[r,s]->O[i,s]",
        ]
        .iter()
        .enumerate()
        {
            self_test(expr, s as u64).unwrap();
        }
    }

    #[test]
    fn nan_and_inf_disagreements_are_mismatches() {
        let want = [1.0, 2.0, f64::INFINITY, 4.0];
        assert!(compare(&want, &want).ok());
        for bad in [
            [f64::NAN, 2.0, f64::INFINITY, 4.0],
            [1.0, 2.0, f64::NEG_INFINITY, 4.0],
            [1.0, 2.0, 3.0, 4.0],
            [1.0, 2.0, f64::INFINITY, 4.0 + 1e-6],
        ] {
            let c = compare(&bad, &want);
            assert_eq!(c.mismatches, 1, "{bad:?}");
        }
        assert!(!compare(&[f64::NAN], &[f64::NAN]).ok());
        assert!(!compare(&[1.0], &[1.0, 2.0]).ok());
    }
}
