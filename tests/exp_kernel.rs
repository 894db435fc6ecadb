//! The vector `exp` kernel against `f64::exp`, bit for bit, on every route
//! this CPU can run: the ends of the range its lanes take, the arguments
//! it hands back to `f64::exp`, and a strided sample of every
//! non-positive `f32` — what a softmax feeds it. (`cargo test --release
//! -p cgx-tensor --lib -- --ignored` runs all 2³¹ of them.)

use cgx_tensor::exp;

/// `x` and the `f64`s on either side of it.
fn around(x: f64) -> [f64; 3] {
    [x.next_down(), x, x.next_up()]
}

fn arguments() -> Vec<f64> {
    let two_pow_m54 = f64::from_bits(0x3c90_0000_0000_0000);
    let mut xs = vec![0.0, -0.0, two_pow_m54, 1.0, 700.0, 710.0, f64::INFINITY];
    for end in [-two_pow_m54, -512.0, -708.0] {
        xs.extend(around(end));
    }
    // Subnormal results from about −708.4, zero below about −745.1.
    xs.extend((0..400).map(|i| -708.0 - f64::from(i) * 0.1));
    xs.extend([-1e4, -f64::MAX, f64::NEG_INFINITY]);
    // Quiet and signalling NaNs of both signs, with payloads.
    for bits in [
        0x7ff8_0000_0000_0000,
        0x7ff8_0000_dead_beef,
        0x7ff0_0000_0000_0001,
    ] {
        xs.extend([f64::from_bits(bits), f64::from_bits(bits | 1 << 63)]);
    }
    // Every 2053rd non-positive `f32`: zeros, subnormals, `−∞` and NaNs
    // among them.
    xs.extend(
        (0x8000_0000u32..=u32::MAX)
            .step_by(2053)
            .map(|bits| f64::from(f32::from_bits(bits))),
    );
    xs
}

#[test]
fn every_route_returns_the_bits_of_f64_exp() {
    let xs = arguments();
    let want: Vec<u64> = xs.iter().map(|x| x.exp().to_bits()).collect();
    for (name, route) in exp::routes() {
        // Whole, and from every offset below a vector's width, so that each
        // argument meets each lane and the buffered tail.
        for skip in 0..9 {
            let mut got = xs[skip..].to_vec();
            route(&mut got);
            for ((x, g), w) in xs[skip..].iter().zip(&got).zip(&want[skip..]) {
                assert_eq!(
                    g.to_bits(),
                    *w,
                    "{name}: exp({x:e}) is {g:e}, f64::exp says {:e}",
                    f64::from_bits(*w)
                );
            }
        }
    }
}

#[test]
fn the_chosen_route_takes_any_length() {
    for len in 0..20 {
        let xs: Vec<f64> = (0..len).map(|i| -0.37 * f64::from(i)).collect();
        let mut got = xs.clone();
        exp::exp(&mut got);
        let want: Vec<f64> = xs.iter().map(|x| x.exp()).collect();
        assert_eq!(got, want, "length {len}");
    }
}

/// A vector body that rounded differently would not fail the tests above:
/// its probe would fail and `exp` would fall back to the scalar loop. So
/// wherever the vector body's promise holds — AVX2, FMA, and a libm that
/// returns glibc's FMA-build bits on the probe's arguments — it must be
/// among the routes.
#[cfg(target_arch = "x86_64")]
#[test]
fn the_vector_route_runs_wherever_libm_is_glibcs_fma_build() {
    // `(f32 argument, glibc's FMA-build exp)`, as bits.
    let glibc_fma = [
        (0xc0cbe39c, 0x3f5c024e5cb9a14f),
        (0xc1c12d48, 0x3dc1ea33b3b150e7),
        (0xc0d9b6f2, 0x3f522ecea7a84ca3),
        (0xc13f29ce, 0x3edb2779af78809a),
    ];
    let libm_is_glibc_fma = glibc_fma.iter().all(|&(x, want)| {
        let x = std::hint::black_box(f64::from(f32::from_bits(x)));
        x.exp().to_bits() == want
    });
    let cpu =
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma");
    let names: Vec<_> = exp::routes().iter().map(|(name, _)| *name).collect();
    assert_eq!(
        names.contains(&"avx2"),
        cpu && libm_is_glibc_fma,
        "routes {names:?}, AVX2 + FMA {cpu}, glibc's FMA build {libm_is_glibc_fma}"
    );
}
