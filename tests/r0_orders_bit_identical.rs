//! Every `R0` loop order, through both Phase A drivers, is bit-identical
//! to the naive order — on random blocks, on every memory layout, at
//! inner sizes that hit each residue of the register kernel's 4× `k2`
//! unroll.

use bpmax::ftable::{FTable, Layout};
use bpmax::kernels::{accumulate_r034_parallel, accumulate_r034_serial, Ctx, R0Order, Tile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rna::{RnaSeq, ScoringModel};

/// Every order the drivers accept, with tiles that split the triangle
/// unevenly as well as the paper's shapes.
const ORDERS: &[R0Order] = &[
    R0Order::Naive,
    R0Order::Permuted,
    R0Order::Tiled(Tile::DEFAULT),
    R0Order::Tiled(Tile {
        i2: 32,
        k2: 4,
        j2: usize::MAX,
    }),
    R0Order::Tiled(Tile {
        i2: 2,
        k2: 3,
        j2: 2,
    }),
    R0Order::Tiled(Tile {
        i2: 3,
        k2: 1,
        j2: 5,
    }),
    R0Order::SimdReg,
];

/// A random block: small integers with some `-∞` cells, so the kernels'
/// skip-on-`-∞` paths run too. Slack cells of bounding-box layouts stay
/// `-∞`, as in a real table.
fn random_block(ft: &FTable, rng: &mut StdRng) -> Vec<f32> {
    let mut block = vec![f32::NEG_INFINITY; ft.layout().storage_len(ft.n())];
    for i2 in 0..ft.n() {
        for j2 in i2..ft.n() {
            if rng.gen_range(0..8) != 0 {
                block[ft.inner(i2, j2)] = rng.gen_range(-8..8) as f32;
            }
        }
    }
    block
}

#[test]
fn every_r0_order_matches_naive_through_both_drivers() {
    let mut rng = StdRng::seed_from_u64(0x4011);
    let model = ScoringModel::bpmax_default();
    let m = 6;
    for layout in [Layout::Packed, Layout::Identity, Layout::Shifted] {
        // n = 5..=8 walks every residue of the 4x unroll's remainder;
        // 1..=4 never enter the unrolled body at all
        for n in [1usize, 2, 3, 4, 5, 6, 7, 8, 11, 17] {
            let ctx = Ctx::new(
                RnaSeq::random(&mut rng, m),
                RnaSeq::random(&mut rng, n),
                model.clone(),
            );
            let mut ft = FTable::new(m, n, layout);
            for i1 in 0..m {
                for j1 in i1..m {
                    let blk = random_block(&ft, &mut rng);
                    ft.block_mut(i1, j1).copy_from_slice(&blk);
                }
            }
            for (i1, j1) in [(0, m - 1), (1, 4), (2, 2)] {
                let base = random_block(&ft, &mut rng);
                let mut want = base.clone();
                accumulate_r034_serial(&ctx, &ft, i1, j1, &mut want, R0Order::Naive);
                for &order in ORDERS {
                    let mut serial = base.clone();
                    let mut parallel = base.clone();
                    accumulate_r034_serial(&ctx, &ft, i1, j1, &mut serial, order);
                    accumulate_r034_parallel(&ctx, &ft, i1, j1, &mut parallel, order);
                    for i2 in 0..n {
                        for j2 in i2..n {
                            let k = ft.inner(i2, j2);
                            let what =
                                format!("{layout:?} n={n} ({i1},{j1}) {order:?} ({i2},{j2})");
                            assert_eq!(serial[k].to_bits(), want[k].to_bits(), "serial {what}");
                            assert_eq!(parallel[k].to_bits(), want[k].to_bits(), "parallel {what}");
                        }
                    }
                }
            }
        }
    }
}
