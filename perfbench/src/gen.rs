//! Seeded inputs for every catalogue kernel, with reference outputs computed
//! here in plain Rust, independently of the compiler under test.
//!
//! Integer outputs must match the reference exactly. Float outputs must lie
//! within an error bound derived from the operation count and `f32::EPSILON`
//! around an `f64` evaluation of the same formula.

use splitc_targets::{Fnv1a, MachineValue};

/// splitmix64: small, seedable, and identical on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// An f32 uniform in `[-range, range)`.
    fn f32(&mut self, range: f32) -> f32 {
        let unit = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        (unit * 2.0 - 1.0) * range
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The expected return value of a kernel.
#[derive(Debug, Clone)]
enum Ret {
    None,
    /// The value of an integer of `bits` width, compared modulo `2^bits`.
    Int {
        bits: u32,
        value: i64,
    },
    Float {
        value: f64,
        tol: f64,
    },
}

/// An expected output region of memory.
#[derive(Debug, Clone)]
enum Out {
    Bytes {
        addr: usize,
        bytes: Vec<u8>,
    },
    F32 {
        addr: usize,
        value: Vec<f64>,
        tol: Vec<f64>,
    },
}

/// One kernel invocation: arguments, initial memory image and the reference
/// outputs it must produce.
#[derive(Debug, Clone)]
pub struct Case {
    pub kernel: &'static str,
    pub args: Vec<MachineValue>,
    pub image: Vec<u8>,
    ret: Ret,
    outs: Vec<Out>,
}

/// Outer trip count of the hot/cold kernels for a size `n`: their inner loop
/// runs `HOTCOLD_M` times per outer iteration, so `n / HOTCOLD_M` keeps their
/// work in line with the one-dimensional kernels at the same `n`.
const HOTCOLD_M: usize = 32;

const EPS: f64 = f32::EPSILON as f64;

/// Bump allocator over the memory image, 64-byte aligned, starting past
/// address 0 so a null pointer never aliases an input.
struct Layout {
    image: Vec<u8>,
}

impl Layout {
    fn new() -> Self {
        Layout { image: vec![0; 64] }
    }

    fn alloc(&mut self, bytes: usize) -> usize {
        let addr = self.image.len();
        let padded = bytes.next_multiple_of(64).max(64);
        self.image.resize(addr + padded, 0);
        addr
    }

    fn put_f32s(&mut self, xs: &[f32]) -> usize {
        let addr = self.alloc(4 * xs.len());
        for (i, x) in xs.iter().enumerate() {
            self.image[addr + 4 * i..addr + 4 * i + 4].copy_from_slice(&x.to_le_bytes());
        }
        addr
    }

    fn put_bytes(&mut self, xs: &[u8]) -> usize {
        let addr = self.alloc(xs.len());
        self.image[addr..addr + xs.len()].copy_from_slice(xs);
        addr
    }

    fn finish(mut self) -> Vec<u8> {
        // Trailing slack, so a kernel that overruns its output is caught by
        // the comparison of its output region rather than by a trap.
        self.image.resize(self.image.len() + 64, 0);
        self.image
    }
}

fn int(v: usize) -> MachineValue {
    MachineValue::Int(v as i64)
}

fn i32s_bytes(xs: &[i32]) -> Vec<u8> {
    xs.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn u16s_bytes(xs: &[u16]) -> Vec<u8> {
    xs.iter().flat_map(|x| x.to_le_bytes()).collect()
}

impl Case {
    /// Inputs for `kernel` at size `n`, drawn from `seed`.
    ///
    /// # Panics
    ///
    /// Panics on a kernel name outside the catalogue.
    pub fn new(kernel: &'static str, n: usize, seed: u64) -> Case {
        let mut rng = Rng::new(seed ^ Fnv1a::hash(kernel.as_bytes()));
        let mut lay = Layout::new();
        let mut outs = Vec::new();
        let mut ret = Ret::None;
        let args;
        match kernel {
            "vecadd_f32" => {
                let x: Vec<f32> = (0..n).map(|_| rng.f32(100.0)).collect();
                let y: Vec<f32> = (0..n).map(|_| rng.f32(100.0)).collect();
                let (xa, ya, za) = (lay.put_f32s(&x), lay.put_f32s(&y), lay.alloc(4 * n));
                let (value, tol) = (0..n)
                    .map(|i| {
                        let (a, b) = (f64::from(x[i]), f64::from(y[i]));
                        (a + b, EPS * (a.abs() + b.abs()))
                    })
                    .unzip();
                outs.push(Out::F32 {
                    addr: za,
                    value,
                    tol,
                });
                args = vec![int(n), int(xa), int(ya), int(za)];
            }
            "saxpy_f32" => {
                let a = 1.75f64;
                let x: Vec<f32> = (0..n).map(|_| rng.f32(100.0)).collect();
                let y: Vec<f32> = (0..n).map(|_| rng.f32(100.0)).collect();
                let (xa, ya) = (lay.put_f32s(&x), lay.put_f32s(&y));
                let (value, tol) = (0..n)
                    .map(|i| {
                        let (ax, b) = (a * f64::from(x[i]), f64::from(y[i]));
                        (ax + b, 2.0 * EPS * (ax.abs() + b.abs()))
                    })
                    .unzip();
                outs.push(Out::F32 {
                    addr: ya,
                    value,
                    tol,
                });
                args = vec![int(n), MachineValue::Float(a), int(xa), int(ya)];
            }
            "dscal_f32" => {
                let a = 0.5f64;
                let x: Vec<f32> = (0..n).map(|_| rng.f32(100.0)).collect();
                let xa = lay.put_f32s(&x);
                let (value, tol) = x
                    .iter()
                    .map(|&v| (a * f64::from(v), EPS * (a * f64::from(v)).abs()))
                    .unzip();
                outs.push(Out::F32 {
                    addr: xa,
                    value,
                    tol,
                });
                args = vec![int(n), MachineValue::Float(a), int(xa)];
            }
            "max_u8" | "sum_u8" => {
                let x: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
                let xa = lay.put_bytes(&x);
                let value = if kernel == "max_u8" {
                    x.iter().copied().max().unwrap_or(0)
                } else {
                    x.iter().fold(0u8, |s, &v| s.wrapping_add(v))
                };
                ret = Ret::Int {
                    bits: 8,
                    value: i64::from(value),
                };
                args = vec![int(n), int(xa)];
            }
            "sum_u16" => {
                let x: Vec<u16> = (0..n).map(|_| rng.next_u64() as u16).collect();
                let xa = lay.put_bytes(&u16s_bytes(&x));
                let value = x.iter().fold(0u16, |s, &v| s.wrapping_add(v));
                ret = Ret::Int {
                    bits: 16,
                    value: i64::from(value),
                };
                args = vec![int(n), int(xa)];
            }
            "min_i16" => {
                let x: Vec<i16> = (0..n).map(|_| rng.next_u64() as i16).collect();
                let bytes: Vec<u8> = x.iter().flat_map(|v| v.to_le_bytes()).collect();
                let xa = lay.put_bytes(&bytes);
                let value = x.iter().copied().fold(i16::MAX, i16::min);
                ret = Ret::Int {
                    bits: 16,
                    value: i64::from(value),
                };
                args = vec![int(n), int(xa)];
            }
            "dot_f32" => {
                let x: Vec<f32> = (0..n).map(|_| rng.f32(10.0)).collect();
                let y: Vec<f32> = (0..n).map(|_| rng.f32(10.0)).collect();
                let (xa, ya) = (lay.put_f32s(&x), lay.put_f32s(&y));
                let terms: Vec<f64> = (0..n).map(|i| f64::from(x[i]) * f64::from(y[i])).collect();
                ret = Ret::Float {
                    value: terms.iter().sum(),
                    tol: (n as f64 + 2.0) * EPS * terms.iter().map(|t| t.abs()).sum::<f64>(),
                };
                args = vec![int(n), int(xa), int(ya)];
            }
            "brighten_u8" | "copy_u8" | "threshold_u8" => {
                let x: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
                let (xa, ya) = (lay.put_bytes(&x), lay.alloc(n));
                let bytes = x
                    .iter()
                    .map(|&v| match kernel {
                        "brighten_u8" => v.wrapping_add(16),
                        "copy_u8" => v,
                        _ => v.clamp(64, 192),
                    })
                    .collect();
                outs.push(Out::Bytes { addr: ya, bytes });
                args = vec![int(n), int(xa), int(ya)];
            }
            "histogram_u8" => {
                let x: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
                let (xa, ca) = (lay.put_bytes(&x), lay.alloc(4 * 256));
                let mut counts = [0i32; 256];
                for &v in &x {
                    counts[usize::from(v)] += 1;
                }
                outs.push(Out::Bytes {
                    addr: ca,
                    bytes: i32s_bytes(&counts),
                });
                args = vec![int(n), int(xa), int(ca)];
            }
            "prefix_sum_i32" => {
                let x: Vec<i32> = (0..n).map(|_| rng.below(2000) as i32 - 1000).collect();
                let (xa, ya) = (lay.put_bytes(&i32s_bytes(&x)), lay.alloc(4 * n));
                let mut acc = 0i32;
                let y: Vec<i32> = x
                    .iter()
                    .map(|&v| {
                        acc = acc.wrapping_add(v);
                        acc
                    })
                    .collect();
                outs.push(Out::Bytes {
                    addr: ya,
                    bytes: i32s_bytes(&y),
                });
                args = vec![int(n), int(xa), int(ya)];
            }
            "fir4_f32" => {
                // The filter reads up to x[i + 3].
                let x: Vec<f32> = (0..n + 3).map(|_| rng.f32(10.0)).collect();
                let (xa, ya) = (lay.put_f32s(&x), lay.alloc(4 * n));
                let taps = [0.25, 0.3, 0.3, 0.15];
                let (value, tol) = (0..n)
                    .map(|i| {
                        let terms: Vec<f64> =
                            (0..4).map(|k| taps[k] * f64::from(x[i + k])).collect();
                        let mag: f64 = terms.iter().map(|t| t.abs()).sum();
                        (terms.iter().sum::<f64>(), 8.0 * EPS * mag)
                    })
                    .unzip();
                outs.push(Out::F32 {
                    addr: ya,
                    value,
                    tol,
                });
                args = vec![int(n), int(xa), int(ya)];
            }
            "horner_f32" => {
                let x: Vec<f32> = (0..n).map(|_| rng.f32(1.0)).collect();
                let (xa, ya) = (lay.put_f32s(&x), lay.alloc(4 * n));
                let c = [1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5];
                let (value, tol) = x
                    .iter()
                    .map(|&v| {
                        let v = f64::from(v);
                        let value = c.iter().rev().fold(0.0, |acc, ci| acc * v + ci);
                        let mag = c.iter().rev().fold(0.0, |acc, ci| acc * v.abs() + ci);
                        (value, 16.0 * EPS * mag)
                    })
                    .unzip();
                outs.push(Out::F32 {
                    addr: ya,
                    value,
                    tol,
                });
                args = vec![int(n), int(xa), int(ya)];
            }
            "hotcold_f32" => {
                let outer = (n / HOTCOLD_M).max(1);
                let x: Vec<f32> = (0..HOTCOLD_M).map(|_| rng.f32(1.0)).collect();
                let y: Vec<f32> = (0..outer).map(|_| rng.f32(1.0)).collect();
                let (xa, ya) = (lay.put_f32s(&x), lay.put_f32s(&y));
                let inner: Vec<f64> = x
                    .iter()
                    .map(|&v| {
                        let v = f64::from(v);
                        (v * 1.5 + 2.5) * (v * 3.5 + 4.5)
                    })
                    .collect();
                let inner_sum: f64 = inner.iter().sum();
                let inner_mag: f64 = inner.iter().map(|t| t.abs()).sum();
                let cold = 0.25 * 0.375 + 0.5 * 0.625 + 0.75;
                let (mut value, mut mag) = (0.0, 0.0);
                for &b in &y {
                    let b = f64::from(b);
                    value += inner_sum + b * 0.125 + cold;
                    mag += inner_mag + (b * 0.125).abs() + cold;
                }
                let ops = (outer * (HOTCOLD_M + 4) + 8) as f64;
                ret = Ret::Float {
                    value,
                    tol: ops * EPS * mag,
                };
                args = vec![int(outer), int(HOTCOLD_M), int(xa), int(ya)];
            }
            "hotcold_i32" => {
                let outer = (n / HOTCOLD_M).max(1);
                let x: Vec<i32> = (0..HOTCOLD_M)
                    .map(|_| rng.below(200) as i32 - 100)
                    .collect();
                let y: Vec<i32> = (0..outer).map(|_| rng.below(200) as i32 - 100).collect();
                let (xa, ya) = (
                    lay.put_bytes(&i32s_bytes(&x)),
                    lay.put_bytes(&i32s_bytes(&y)),
                );
                let mut acc = 0i32;
                for &b in &y {
                    for &v in &x {
                        let hot = v.wrapping_mul(3).wrapping_add(5);
                        acc = acc.wrapping_add(hot.wrapping_mul(v.wrapping_mul(7).wrapping_add(9)));
                    }
                    acc = acc
                        .wrapping_add(b.wrapping_mul(11))
                        .wrapping_add(13 * 17 + 19 * 23 + 29);
                }
                ret = Ret::Int {
                    bits: 32,
                    value: i64::from(acc),
                };
                args = vec![int(outer), int(HOTCOLD_M), int(xa), int(ya)];
            }
            other => panic!("no input generator for kernel `{other}`"),
        }
        Case {
            kernel,
            args,
            image: lay.finish(),
            ret,
            outs,
        }
    }

    /// Check a finished run's return value and memory against the reference.
    pub fn check(&self, result: Option<MachineValue>, mem: &[u8]) -> Result<(), String> {
        match (&self.ret, result) {
            (Ret::None, None) => {}
            (Ret::Int { bits, value }, Some(MachineValue::Int(got))) => {
                let mask = if *bits == 64 {
                    u64::MAX
                } else {
                    (1u64 << bits) - 1
                };
                if (got as u64 ^ *value as u64) & mask != 0 {
                    return Err(format!("{}: returned {got}, expected {value}", self.kernel));
                }
            }
            (Ret::Float { value, tol }, Some(MachineValue::Float(got))) => {
                if (got - value).abs() > *tol {
                    return Err(format!(
                        "{}: returned {got}, expected {value} within {tol}",
                        self.kernel
                    ));
                }
            }
            (want, got) => {
                return Err(format!(
                    "{}: returned {got:?}, expected {want:?}",
                    self.kernel
                ))
            }
        }
        for out in &self.outs {
            match out {
                Out::Bytes { addr, bytes } => {
                    if mem.get(*addr..addr + bytes.len()) != Some(bytes.as_slice()) {
                        return Err(format!(
                            "{}: output bytes differ from the reference",
                            self.kernel
                        ));
                    }
                }
                Out::F32 { addr, value, tol } => {
                    for (i, (v, t)) in value.iter().zip(tol).enumerate() {
                        let at = addr + 4 * i;
                        let got = mem
                            .get(at..at + 4)
                            .map(|b| f64::from(f32::from_le_bytes([b[0], b[1], b[2], b[3]])))
                            .ok_or_else(|| format!("{}: output out of memory", self.kernel))?;
                        if (got - v).abs() > *t {
                            return Err(format!(
                                "{}: element {i} is {got}, expected {v} within {t}",
                                self.kernel
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Bit pattern of a return value, for bit-identity checks across deploys.
pub fn result_bits(result: Option<MachineValue>) -> u64 {
    match result {
        None => 0,
        Some(MachineValue::Int(v)) => v as u64,
        Some(MachineValue::Float(v)) => v.to_bits(),
    }
}

/// Key counts of one round of `total` requests over `keys` keys whose
/// popularity follows Zipf(1) by rank: exact largest-remainder shares, so
/// every round carries the same multiset of keys whatever the seed.
pub fn zipf_counts(keys: usize, total: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=keys).map(|r| 1.0 / r as f64).collect();
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..keys).collect();
    order.sort_by(|&a, &b| {
        let (ra, rb) = (exact[a] - exact[a].floor(), exact[b] - exact[b].floor());
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let short = total - counts.iter().sum::<usize>();
    for &k in order.iter().take(short) {
        counts[k] += 1;
    }
    counts
}
