//! Owned data layouts of the two-level decomposition and their
//! (de)serialisation into all-to-all payloads.
//!
//! The SCBA cycle alternates between two layouts (paper Fig. 3):
//!
//! * **energy-major** ([`EnergySlab`]): each rank owns a contiguous slice of
//!   energy points and stores one block-tridiagonal matrix per energy — the
//!   layout of the OBC + assembly + RGF phases;
//! * **element-major** ([`ElementSlab`]): each rank owns a contiguous slice of
//!   the *canonical element list* and stores, per element, the full energy
//!   series — the layout of the P/Σ convolutions (FFTs over energy).
//!
//! [`TranspositionPlan`] fixes both partitions and the wire format of the
//! `Alltoallv` messages that convert between them. With
//! `symmetry_reduced = true` (Section 5.2) only the canonical elements travel
//! — the mirror elements are reconstructed from the NEGF symmetry
//! `X^≶_ij = −X^≶*_ji` at the receiving side, halving the volume exactly as
//! [`quatrex_runtime::TranspositionVolume`] models. Retarded quantities do not
//! obey the symmetry, so their backward transposition always ships canonical
//! and mirror elements.

use std::ops::Range;

use quatrex_core::convolution::{canonical_elements, ElementId};
use quatrex_core::EnergyResolved;
use quatrex_linalg::{c64, CMatrix};
use quatrex_rgf::{BoundaryCouplings, PartitionSystemSlice, SpatialPartition};
use quatrex_sparse::BlockTridiagonal;

use crate::partition::partition_weighted;

/// Bytes on the wire per complex value (complex128).
pub const BYTES_PER_VALUE: usize = 16;

// ---------------------------------------------------------------------------
// Shared complex128-stream primitives of the group-level wire formats (the
// spatial boundary-system messages ride the same byte-accounted `Alltoallv`
// as the transpositions).

/// Append every entry of a matrix in row-major order.
pub(crate) fn push_matrix(buf: &mut Vec<c64>, m: &CMatrix) {
    let (nr, nc) = m.shape();
    for r in 0..nr {
        for c in 0..nc {
            buf.push(m[(r, c)]);
        }
    }
}

/// Read one `bs × bs` matrix written by [`push_matrix`].
pub(crate) fn read_matrix<'a>(it: &mut impl Iterator<Item = &'a c64>, bs: usize) -> CMatrix {
    let mut m = CMatrix::zeros(bs, bs);
    for r in 0..bs {
        for c in 0..bs {
            m[(r, c)] = *it.next().expect("short spatial message"); // lint:allow(no-unwrap): encoder fixes the message length; truncation is a wire-format bug
        }
    }
    m
}

/// Append a block-tridiagonal quantity: diagonals first, then per row the
/// upper and lower couplings.
pub(crate) fn push_bt(buf: &mut Vec<c64>, bt: &BlockTridiagonal) {
    let nb = bt.n_blocks();
    for i in 0..nb {
        push_matrix(buf, bt.diag(i));
    }
    for i in 0..nb.saturating_sub(1) {
        push_matrix(buf, bt.upper(i));
        push_matrix(buf, bt.lower(i));
    }
}

/// Read a block-tridiagonal quantity written by [`push_bt`].
pub(crate) fn read_bt<'a>(
    it: &mut impl Iterator<Item = &'a c64>,
    nb: usize,
    bs: usize,
) -> BlockTridiagonal {
    let mut bt = BlockTridiagonal::zeros(nb, bs);
    for i in 0..nb {
        bt.set_block(i, i, read_matrix(it, bs));
    }
    for i in 0..nb.saturating_sub(1) {
        bt.set_block(i, i + 1, read_matrix(it, bs));
        bt.set_block(i + 1, i, read_matrix(it, bs));
    }
    bt
}

/// Wire type of the slice-wise system distribution: everything one spatial
/// rank needs to eliminate its partition of one per-energy system — the
/// partition's interior blocks of `A`, `B^<`, `B^>` plus the separator
/// coupling blocks ([`quatrex_rgf::PartitionSystemSlice`]) — instead of the
/// full `3·(3·N_B − 2)`-block broadcast the pre-slice path shipped. Cutting
/// the distribution payload to each rank's own slice reduces the per-phase
/// boundary-system bytes by `~1/P_S`; `DistReport` tracks the measured saving
/// against the broadcast-equivalent volume.
#[derive(Debug, Clone)]
pub struct PartitionSlice {
    /// Index of the partition (spatial rank) this slice feeds.
    pub partition: usize,
    /// The sliced system: interior blocks + separator couplings of `A` and of
    /// every right-hand side.
    pub system: PartitionSystemSlice,
}

impl PartitionSlice {
    /// Cut the slice of `part` out of a full per-energy system.
    pub fn extract(
        a: &BlockTridiagonal,
        rhs: &[&BlockTridiagonal],
        part: &SpatialPartition,
        partition: usize,
    ) -> Self {
        Self {
            partition,
            system: PartitionSystemSlice::extract(a, rhs, part),
        }
    }

    /// Complex values of the wire encoding (headers included).
    pub fn wire_values(&self) -> usize {
        2 + self.system.boundaries.len() + self.system.stored_values()
    }

    /// Complex values the pre-slice broadcast path shipped per destination
    /// for the same distribution: the full block-tridiagonal system and
    /// `n_rhs` right-hand sides.
    pub fn full_broadcast_values(nb: usize, bs: usize, n_rhs: usize) -> usize {
        (1 + n_rhs) * (nb + 2 * nb.saturating_sub(1)) * bs * bs
    }

    /// Serialise into a complex128 stream.
    pub fn encode(&self, buf: &mut Vec<c64>) {
        let sys = &self.system;
        buf.push(c64::new(self.partition as f64, sys.n_rhs() as f64));
        buf.push(c64::new(
            sys.a_int.n_blocks() as f64,
            sys.boundaries.len() as f64,
        ));
        for b in &sys.boundaries {
            buf.push(c64::new(b.sep as f64, f64::from(u8::from(b.left))));
        }
        push_bt(buf, &sys.a_int);
        for b in &sys.rhs_int {
            push_bt(buf, b);
        }
        for b in &sys.boundaries {
            push_matrix(buf, &b.a_sep_to_int);
            push_matrix(buf, &b.a_int_to_sep);
            for r in 0..sys.n_rhs() {
                push_matrix(buf, &b.rhs_sep_to_int[r]);
                push_matrix(buf, &b.rhs_int_to_sep[r]);
            }
        }
    }

    /// Deserialise one slice written by [`Self::encode`].
    pub fn decode<'a>(it: &mut impl Iterator<Item = &'a c64>, bs: usize) -> Self {
        let head = it.next().expect("short partition-slice message"); // lint:allow(no-unwrap): encoder fixes the message length; truncation is a wire-format bug
        let (partition, n_rhs) = (head.re as usize, head.im as usize);
        let head = it.next().expect("short partition-slice message"); // lint:allow(no-unwrap): encoder fixes the message length; truncation is a wire-format bug
        let (n_int, n_boundaries) = (head.re as usize, head.im as usize);
        let specs: Vec<(usize, bool)> = (0..n_boundaries)
            .map(|_| {
                let b = it.next().expect("short partition-slice message"); // lint:allow(no-unwrap): encoder fixes the message length; truncation is a wire-format bug
                (b.re as usize, b.im != 0.0)
            })
            .collect();
        let a_int = read_bt(it, n_int, bs);
        let rhs_int: Vec<BlockTridiagonal> = (0..n_rhs).map(|_| read_bt(it, n_int, bs)).collect();
        let boundaries = specs
            .into_iter()
            .map(|(sep, left)| {
                let a_sep_to_int = read_matrix(it, bs);
                let a_int_to_sep = read_matrix(it, bs);
                let mut rhs_sep_to_int = Vec::with_capacity(n_rhs);
                let mut rhs_int_to_sep = Vec::with_capacity(n_rhs);
                for _ in 0..n_rhs {
                    rhs_sep_to_int.push(read_matrix(it, bs));
                    rhs_int_to_sep.push(read_matrix(it, bs));
                }
                BoundaryCouplings {
                    sep,
                    left,
                    a_sep_to_int,
                    a_int_to_sep,
                    rhs_sep_to_int,
                    rhs_int_to_sep,
                }
            })
            .collect();
        Self {
            partition,
            system: PartitionSystemSlice {
                a_int,
                rhs_int,
                boundaries,
            },
        }
    }
}

/// A rank's energy-major slice of one or more BT quantities.
#[derive(Debug, Clone)]
pub struct EnergySlab {
    /// Global energy indices owned by this rank.
    pub energies: Range<usize>,
    /// `components[c][local_energy]` — e.g. `[G^<, G^>]`.
    pub components: Vec<Vec<BlockTridiagonal>>,
}

/// A rank's element-major slice: full energy series of the owned canonical
/// elements and of their mirrors.
///
/// Each component is one contiguous element-major buffer: the series of
/// local element `e` occupies `[e·N_E, (e+1)·N_E)`. One allocation per
/// component instead of one per element series keeps building and dropping
/// a slab cheap at `10⁵` elements.
#[derive(Debug, Clone)]
pub struct ElementSlab {
    /// Indices into the canonical element list owned by this rank.
    pub elements: Range<usize>,
    /// Energy points per series (`N_E`).
    pub n_energies: usize,
    /// `canonical[c]`: the canonical series of component `c`, element-major.
    pub canonical: Vec<Vec<c64>>,
    /// `mirror[c]`: the series of the transposed elements, element-major;
    /// for self-mirror elements this repeats the canonical series.
    pub mirror: Vec<Vec<c64>>,
}

impl ElementSlab {
    /// An all-zero slab for `elements`, ready to absorb forward batches
    /// ([`TranspositionPlan::absorb_forward_batch`]). Energies that have not
    /// arrived yet read as zero.
    pub fn zeroed(elements: Range<usize>, n_components: usize, n_energies: usize) -> Self {
        let zero = vec![vec![c64::new(0.0, 0.0); elements.len() * n_energies]; n_components];
        Self {
            elements,
            n_energies,
            canonical: zero.clone(),
            mirror: zero,
        }
    }

    /// The canonical series of component `c` at local element `e_local`.
    pub fn canonical_series(&self, c: usize, e_local: usize) -> &[c64] {
        &self.canonical[c][e_local * self.n_energies..(e_local + 1) * self.n_energies]
    }

    /// The mirror series of component `c` at local element `e_local`.
    pub fn mirror_series(&self, c: usize, e_local: usize) -> &[c64] {
        &self.mirror[c][e_local * self.n_energies..(e_local + 1) * self.n_energies]
    }
}

/// A backward-travelling component: whether the mirror series ride along or
/// are reconstructed from the NEGF symmetry at the destination.
///
/// The series are element-major like an [`ElementSlab`] component: local
/// element `e`'s series occupies `[e·N_E, (e+1)·N_E)`.
pub enum BackComponent<'a> {
    /// Lesser/greater-like component obeying `X_ij = −X*_ji`. Under symmetry
    /// reduction only the canonical series are shipped.
    Symmetric {
        /// Canonical series, element-major.
        canonical: &'a [c64],
        /// Mirror series, element-major (shipped when the plan is not
        /// symmetry-reduced).
        mirror: &'a [c64],
    },
    /// Retarded-like component with no exploitable symmetry: canonical and
    /// mirror series always ship.
    Full {
        /// Canonical series, element-major.
        canonical: &'a [c64],
        /// Mirror series, element-major.
        mirror: &'a [c64],
    },
}

/// The fixed geometry of the energy↔element transposition: partitions,
/// canonical element list and wire format, shared by every rank.
///
/// With the two-level decomposition (`spatial_partitions > 1`) the
/// transposition participants are the **energy groups**, not the flat ranks:
/// only spatial rank 0 of each group (the *group leader*,
/// [`crate::spatial::RankGrid::leader_of`]) holds energy-major and
/// element-major data and exchanges it; the other spatial ranks of a group
/// join the collectives with empty messages. `n_ranks` therefore counts
/// groups, and the flat communicator has `n_ranks · spatial_partitions`
/// ranks.
#[derive(Debug, Clone)]
pub struct TranspositionPlan {
    /// Number of transposition participants (energy groups).
    pub n_ranks: usize,
    /// Spatial partitions per energy group (`P_S`; 1 = flat decomposition).
    pub spatial_partitions: usize,
    /// Number of energy points.
    pub n_energies: usize,
    /// Number of transport-cell blocks.
    pub n_blocks: usize,
    /// Transport-cell block size.
    pub block_size: usize,
    /// Canonical (symmetry-reduced) element list, in fixed order.
    pub elements: Vec<ElementId>,
    /// Energy ownership per group (contiguous, ascending).
    pub energy_ranges: Vec<Range<usize>>,
    /// Canonical-element ownership per group (contiguous, ascending).
    pub element_ranges: Vec<Range<usize>>,
    /// Ship only canonical elements for symmetric quantities (Section 5.2).
    pub symmetry_reduced: bool,
}

impl TranspositionPlan {
    /// Build a plan from the problem shape. `n_groups` is the number of
    /// energy groups (the transposition participants); the flat communicator
    /// runs `n_groups · spatial_partitions` ranks. Energies and canonical
    /// elements are split into near-equal contiguous ranges with
    /// [`partition_weighted`] over unit weights, which hands any remainder to
    /// the last groups (10 energies over 3 groups: 3 + 3 + 4).
    pub fn new(
        n_blocks: usize,
        block_size: usize,
        n_energies: usize,
        n_groups: usize,
        spatial_partitions: usize,
        symmetry_reduced: bool,
    ) -> Self {
        assert!(spatial_partitions >= 1);
        let elements = canonical_elements(n_blocks, block_size);
        let energy_ranges = partition_weighted(&vec![1.0; n_energies], n_groups);
        let element_ranges = partition_weighted(&vec![1.0; elements.len()], n_groups);
        Self {
            n_ranks: n_groups,
            spatial_partitions,
            n_energies,
            n_blocks,
            block_size,
            elements,
            energy_ranges,
            element_ranges,
            symmetry_reduced,
        }
    }

    /// Number of canonical elements.
    pub fn n_canonical(&self) -> usize {
        self.elements.len()
    }

    /// Total flat communicator ranks (`groups · P_S`).
    pub fn n_total_ranks(&self) -> usize {
        self.n_ranks * self.spatial_partitions
    }

    /// Number of stored scalar values per energy of the full BT pattern.
    pub fn stored_values(&self) -> usize {
        quatrex_core::convolution::stored_values(self.n_blocks, self.block_size)
    }

    /// Forward serialisation (energy-major → element-major): build the
    /// per-destination messages for the symmetric components `comps`
    /// (`comps[c][local_energy]`, local to `rank`'s energy range).
    ///
    /// Wire format of the message to rank `q`, in order: for every component,
    /// for every canonical element owned by `q` (ascending), the values at
    /// this rank's energies (ascending); then, when not symmetry-reduced, the
    /// same loop again for the mirror elements (self-mirror elements skipped).
    ///
    /// Equivalent to [`Self::scatter_forward_batch`] over the full local
    /// energy range (a single batch).
    pub fn scatter_forward(&self, rank: usize, comps: &[&[BlockTridiagonal]]) -> Vec<Vec<c64>> {
        self.scatter_forward_batch(rank, comps, 0..self.energy_ranges[rank].len())
    }

    /// Forward serialisation of one energy batch: like
    /// [`Self::scatter_forward`], but the messages carry only the energies in
    /// `local` (a sub-range of this rank's *local* energy indices). `comps`
    /// still hold the rank's full local data; the batch selects from them.
    pub fn scatter_forward_batch(
        &self,
        rank: usize,
        comps: &[&[BlockTridiagonal]],
        local: Range<usize>,
    ) -> Vec<Vec<c64>> {
        let my_energies = self.energy_ranges[rank].clone();
        for c in comps {
            assert_eq!(c.len(), my_energies.len());
        }
        (0..self.n_ranks)
            .map(|q| {
                let elems = self.element_ranges[q].clone();
                let mut msg = Vec::with_capacity(2 * comps.len() * elems.len() * local.len());
                for comp in comps {
                    for e in elems.clone() {
                        let id = self.elements[e];
                        for bt in comp[local.clone()].iter() {
                            msg.push(id.value_in(bt));
                        }
                    }
                }
                if !self.symmetry_reduced {
                    for comp in comps {
                        for e in elems.clone() {
                            let id = self.elements[e];
                            if id.is_self_mirror() {
                                continue;
                            }
                            let m = id.mirror();
                            for bt in comp[local.clone()].iter() {
                                msg.push(m.value_in(bt));
                            }
                        }
                    }
                }
                msg
            })
            .collect()
    }

    /// Forward deserialisation at the element owner: reassemble the full
    /// energy series of the owned canonical elements (and their mirrors) from
    /// the per-source messages (in rank order).
    ///
    /// Equivalent to one [`Self::absorb_forward_batch`] covering every
    /// source's full energy range.
    pub fn gather_elements(
        &self,
        rank: usize,
        received: Vec<Vec<c64>>,
        n_components: usize,
    ) -> ElementSlab {
        let mut slab = ElementSlab::zeroed(
            self.element_ranges[rank].clone(),
            n_components,
            self.n_energies,
        );
        self.absorb_forward_batch(rank, &mut slab, received, &self.energy_ranges);
        slab
    }

    /// Absorb one forward batch into an accumulating [`ElementSlab`]:
    /// `received[src]` carries source `src`'s energies in `src_ranges[src]`
    /// (global indices; the batch's slice of the source's energy range). The
    /// canonical values are written and the mirror values of the arrived
    /// energies are filled immediately — read from the message when the plan
    /// is not symmetry-reduced, reconstructed from `X^≶_ji = −X^≶*_ij`
    /// otherwise — so the per-batch convolution kernels can consume the batch
    /// while the next one is still in flight.
    pub fn absorb_forward_batch(
        &self,
        rank: usize,
        slab: &mut ElementSlab,
        received: Vec<Vec<c64>>,
        src_ranges: &[Range<usize>],
    ) {
        let elems = self.element_ranges[rank].clone();
        let ne = slab.n_energies;
        for (src, msg) in received.iter().enumerate() {
            let src_energies = src_ranges[src].clone();
            let mut it = msg.iter();
            for (canon_comp, mirror_comp) in slab.canonical.iter_mut().zip(&mut slab.mirror) {
                let series = canon_comp
                    .chunks_exact_mut(ne)
                    .zip(mirror_comp.chunks_exact_mut(ne));
                for (e_local, (series, mirror)) in series.enumerate() {
                    let id = self.elements[elems.start + e_local];
                    let self_mirror = id.is_self_mirror();
                    for k in src_energies.clone() {
                        let v = *it.next().expect("short forward message"); // lint:allow(no-unwrap): encoder fixes the message length; truncation is a wire-format bug
                        series[k] = v;
                        // Mirror of the arrived energy: its own value for
                        // self-mirror elements, the NEGF reconstruction under
                        // symmetry reduction, and the explicitly shipped value
                        // below otherwise (which overwrites this one).
                        mirror[k] = if self_mirror { v } else { -v.conj() };
                    }
                }
            }
            if !self.symmetry_reduced {
                for mirror_comp in slab.mirror.iter_mut() {
                    for (e_local, series) in mirror_comp.chunks_exact_mut(ne).enumerate() {
                        if self.elements[elems.start + e_local].is_self_mirror() {
                            continue;
                        }
                        for k in src_energies.clone() {
                            // lint:allow(no-unwrap): encoder fixes the message length; truncation is a wire-format bug
                            series[k] = *it.next().expect("short forward message");
                        }
                    }
                }
            }
            assert!(it.next().is_none(), "long forward message");
        }
    }

    /// Backward serialisation (element-major → energy-major): build the
    /// per-destination messages for the given components.
    ///
    /// Wire format of the message to rank `q`: for every component, for every
    /// canonical element owned by this rank (ascending), the values at `q`'s
    /// energies (ascending); then for every component, the mirror series of
    /// the non-self-mirror elements — skipped for [`BackComponent::Symmetric`]
    /// under symmetry reduction.
    ///
    /// Equivalent to [`Self::scatter_backward_batch`] with every
    /// destination's full energy range (a single batch).
    pub fn scatter_backward(&self, rank: usize, comps: &[BackComponent<'_>]) -> Vec<Vec<c64>> {
        self.scatter_backward_batch(rank, comps, &self.energy_ranges)
    }

    /// Backward serialisation of one energy batch: like
    /// [`Self::scatter_backward`], but the message to rank `q` carries only
    /// the energies in `dst_ranges[q]` (global indices; the batch's slice of
    /// `q`'s energy range).
    pub fn scatter_backward_batch(
        &self,
        rank: usize,
        comps: &[BackComponent<'_>],
        dst_ranges: &[Range<usize>],
    ) -> Vec<Vec<c64>> {
        let elems = self.element_ranges[rank].clone();
        let ne = self.n_energies;
        (0..self.n_ranks)
            .map(|q| {
                let dst_energies = dst_ranges[q].clone();
                let mut msg = Vec::new();
                for comp in comps {
                    let canonical = match comp {
                        BackComponent::Symmetric { canonical, .. } => canonical,
                        BackComponent::Full { canonical, .. } => canonical,
                    };
                    for series in canonical.chunks_exact(ne).take(elems.len()) {
                        for k in dst_energies.clone() {
                            msg.push(series[k]);
                        }
                    }
                }
                for comp in comps {
                    let mirror = match comp {
                        BackComponent::Symmetric { mirror, .. } => {
                            if self.symmetry_reduced {
                                continue;
                            }
                            mirror
                        }
                        BackComponent::Full { mirror, .. } => mirror,
                    };
                    for (e_local, series) in mirror.chunks_exact(ne).enumerate().take(elems.len()) {
                        if self.elements[elems.start + e_local].is_self_mirror() {
                            continue;
                        }
                        for k in dst_energies.clone() {
                            msg.push(series[k]);
                        }
                    }
                }
                msg
            })
            .collect()
    }

    /// Backward deserialisation at the energy owner: reassemble energy-major
    /// BT quantities (one per component) for the owned energies from the
    /// per-source messages. `symmetric[c]` states whether component `c`
    /// travelled as [`BackComponent::Symmetric`].
    ///
    /// Equivalent to pre-allocating zeros and absorbing one
    /// [`Self::absorb_backward_batch`] covering the full local range.
    pub fn gather_energies(
        &self,
        rank: usize,
        received: Vec<Vec<c64>>,
        symmetric: &[bool],
    ) -> Vec<EnergyResolved> {
        let my_energies = self.energy_ranges[rank].clone();
        let n_local = my_energies.len();
        let mut out: Vec<EnergyResolved> = (0..symmetric.len())
            .map(|_| {
                (0..n_local)
                    .map(|_| BlockTridiagonal::zeros(self.n_blocks, self.block_size))
                    .collect()
            })
            .collect();
        self.absorb_backward_batch(rank, &mut out, received, symmetric, my_energies);
        out
    }

    /// Absorb one backward batch into pre-allocated energy-major outputs:
    /// `received` carries, from every source, this rank's energies in
    /// `my_range` (global indices; the batch's slice of this rank's energy
    /// range). Only the matrices of those energies are touched.
    pub fn absorb_backward_batch(
        &self,
        rank: usize,
        out: &mut [EnergyResolved],
        received: Vec<Vec<c64>>,
        symmetric: &[bool],
        my_range: Range<usize>,
    ) {
        let my_start = self.energy_ranges[rank].start;
        for (src, msg) in received.iter().enumerate() {
            let src_elems = self.element_ranges[src].clone();
            let mut it = msg.iter();
            for (c, comp_out) in out.iter_mut().enumerate() {
                for e in src_elems.clone() {
                    let id = self.elements[e];
                    for k in my_range.clone() {
                        let bt = &mut comp_out[k - my_start];
                        let v = *it.next().expect("short backward message"); // lint:allow(no-unwrap): encoder fixes the message length; truncation is a wire-format bug
                        set_element(bt, id, v);
                        // Symmetric mirrors are reconstructed on the fly; the
                        // raw (or full) mirrors arriving below overwrite this
                        // value when they travel explicitly.
                        if symmetric[c] && !id.is_self_mirror() {
                            set_element(bt, id.mirror(), -v.conj());
                        }
                    }
                }
            }
            for (c, comp_out) in out.iter_mut().enumerate() {
                if symmetric[c] && self.symmetry_reduced {
                    continue;
                }
                for e in src_elems.clone() {
                    let id = self.elements[e];
                    if id.is_self_mirror() {
                        continue;
                    }
                    let m = id.mirror();
                    for k in my_range.clone() {
                        let v = *it.next().expect("short backward message"); // lint:allow(no-unwrap): encoder fixes the message length; truncation is a wire-format bug
                        set_element(&mut comp_out[k - my_start], m, v);
                    }
                }
            }
            assert!(it.next().is_none(), "long backward message");
        }
    }

    /// Off-rank wire bytes of a payload produced by one of the scatter
    /// functions (self-messages stay on the rank and cost nothing).
    pub fn off_rank_bytes(&self, rank: usize, payloads: &[Vec<c64>]) -> u64 {
        off_rank_payload_bytes(rank, payloads)
    }
}

/// The energy-batch schedule of one iteration's transpositions (the paper's
/// communication/computation overlap): every group's owned energy range is
/// cut into `n_batches` contiguous sub-ranges, and each transposition ships
/// one sub-range per `Alltoallv` instead of the whole range at once. The
/// solver double-buffers the batches — batch `k+1` is posted non-blocking
/// ([`quatrex_runtime::RankContext::alltoallv_start`]) while batch `k` is
/// unpacked and its convolution contribution accumulated — which bounds the
/// in-flight transposition buffers to a batch (`DistReport::peak_slab_bytes`)
/// instead of a whole iteration.
///
/// With `n_batches = 1` the single batch covers every range in full, and the
/// pipeline degenerates to the original blocking transposition bit-for-bit.
/// More batches than a group has energies leave the surplus batches empty —
/// harmless degenerate collectives that ship no bytes.
#[derive(Debug, Clone)]
pub struct TranspositionBatchPlan {
    /// Number of batches every transposition is cut into (`B ≥ 1`).
    pub n_batches: usize,
    /// `local_ranges[group][batch]` — sub-range of the group's *local* energy
    /// indices shipped in that batch. Per group the sub-ranges are
    /// contiguous, ascending, and cover `0..n_local` exactly.
    pub local_ranges: Vec<Vec<Range<usize>>>,
}

impl TranspositionBatchPlan {
    /// Cut every group's energy range of `plan` into `n_batches` near-equal
    /// contiguous batches. Deterministic: every rank derives the identical
    /// schedule from the shared plan.
    pub fn new(plan: &TranspositionPlan, n_batches: usize) -> Self {
        assert!(n_batches >= 1, "at least one batch per transposition");
        let local_ranges = plan
            .energy_ranges
            .iter()
            .map(|r| partition_weighted(&vec![1.0; r.len()], n_batches))
            .collect();
        Self {
            n_batches,
            local_ranges,
        }
    }

    /// The *global* energy sub-range group `group` contributes to batch `b`.
    pub fn global_range(&self, plan: &TranspositionPlan, group: usize, b: usize) -> Range<usize> {
        let start = plan.energy_ranges[group].start;
        let local = &self.local_ranges[group][b];
        (start + local.start)..(start + local.end)
    }

    /// The global sub-ranges of every group for batch `b`, in group order
    /// (the per-source shapes of one forward batch, and the per-destination
    /// shapes of one backward batch).
    pub fn global_ranges(&self, plan: &TranspositionPlan, b: usize) -> Vec<Range<usize>> {
        (0..plan.n_ranks)
            .map(|g| self.global_range(plan, g, b))
            .collect()
    }

    /// All global energy indices arriving in forward batch `b` (ascending —
    /// the groups' ranges are ordered and disjoint). This is the batch view
    /// the accumulation kernels in `quatrex_core::convolution` consume.
    pub fn arrived_global(&self, plan: &TranspositionPlan, b: usize) -> Vec<usize> {
        let mut v = Vec::new();
        for g in 0..plan.n_ranks {
            v.extend(self.global_range(plan, g, b));
        }
        v
    }
}

/// Off-rank wire bytes of any per-destination `Alltoallv` payload: messages
/// to `rank` itself stay local and cost nothing. Shared by the transposition
/// accounting and the spatial boundary-system accounting so the
/// "self-messages are free" convention lives in exactly one place.
pub fn off_rank_payload_bytes(rank: usize, payloads: &[Vec<c64>]) -> u64 {
    payloads
        .iter()
        .enumerate()
        .filter(|(q, _)| *q != rank)
        .map(|(_, m)| (m.len() * BYTES_PER_VALUE) as u64)
        .sum()
}

/// Write one scalar element of a BT quantity.
fn set_element(bt: &mut BlockTridiagonal, id: ElementId, value: c64) {
    use quatrex_core::convolution::BlockPos;
    let block = match id.pos {
        BlockPos::Diag(i) => bt.diag_mut(i),
        BlockPos::Upper(i) => bt.upper_mut(i),
        BlockPos::Lower(i) => bt.lower_mut(i),
    };
    block[(id.row, id.col)] = value;
}

#[cfg(test)]
mod tests {
    use super::*;
    use quatrex_core::convolution::element_series;
    use quatrex_linalg::{cplx, CMatrix};
    use quatrex_runtime::{RankContext, ThreadComm};

    /// An exactly NEGF-symmetric synthetic quantity.
    fn symmetric_quantity(ne: usize, nb: usize, bs: usize, seed: f64) -> EnergyResolved {
        (0..ne)
            .map(|k| {
                let mut bt = BlockTridiagonal::zeros(nb, bs);
                for i in 0..nb {
                    let raw = CMatrix::from_fn(bs, bs, |r, c| {
                        cplx(
                            (seed + (k * 7 + i * 3 + r * 5 + c) as f64).sin(),
                            (seed * 1.7 + (k + i + 2 * r + 3 * c) as f64).cos(),
                        )
                    });
                    bt.set_block(i, i, raw.negf_antihermitian_part());
                }
                for i in 0..nb - 1 {
                    let u = CMatrix::from_fn(bs, bs, |r, c| {
                        cplx(
                            (seed + (k * 11 + i + r + 4 * c) as f64).cos() * 0.3,
                            (seed + (k * 5 + 2 * i + 3 * r + c) as f64).sin() * 0.2,
                        )
                    });
                    bt.set_block(i, i + 1, u.clone());
                    bt.set_block(i + 1, i, u.dagger().scaled(cplx(-1.0, 0.0)));
                }
                bt
            })
            .collect()
    }

    fn roundtrip(n_ranks: usize, symmetry_reduced: bool) {
        let (nb, bs, ne) = (3, 2, 8);
        let plan = std::sync::Arc::new(TranspositionPlan::new(
            nb,
            bs,
            ne,
            n_ranks,
            1,
            symmetry_reduced,
        ));
        let gl = std::sync::Arc::new(symmetric_quantity(ne, nb, bs, 0.3));
        let gg = std::sync::Arc::new(symmetric_quantity(ne, nb, bs, 1.9));

        let plan2 = std::sync::Arc::clone(&plan);
        let gl2 = std::sync::Arc::clone(&gl);
        let gg2 = std::sync::Arc::clone(&gg);
        let (results, stats) = ThreadComm::run(n_ranks, move |ctx: RankContext<Vec<c64>>| {
            let rank = ctx.rank();
            let my_e = plan2.energy_ranges[rank].clone();
            let local_l: Vec<BlockTridiagonal> = gl2[my_e.clone()].to_vec();
            let local_g: Vec<BlockTridiagonal> = gg2[my_e.clone()].to_vec();
            // forward: energy-major -> element-major
            let payloads = plan2.scatter_forward(rank, &[&local_l, &local_g]);
            let sent = plan2.off_rank_bytes(rank, &payloads);
            let recv = ctx.alltoallv(payloads, |m| m.len() * BYTES_PER_VALUE);
            let slab = plan2.gather_elements(rank, recv, 2);
            // backward: element-major -> energy-major (as-is)
            let comps = [
                BackComponent::Symmetric {
                    canonical: &slab.canonical[0],
                    mirror: &slab.mirror[0],
                },
                BackComponent::Symmetric {
                    canonical: &slab.canonical[1],
                    mirror: &slab.mirror[1],
                },
            ];
            let back = plan2.scatter_backward(rank, &comps);
            let recv = ctx.alltoallv(back, |m| m.len() * BYTES_PER_VALUE);
            let out = plan2.gather_energies(rank, recv, &[true, true]);
            (slab, out, sent)
        });

        // Element slabs must carry the exact series of both quantities.
        for (rank, (slab, out, _)) in results.iter().enumerate() {
            for (e_local, e) in plan.element_ranges[rank].clone().enumerate() {
                let id = plan.elements[e];
                let want_l = element_series(&gl, id.pos, id.row, id.col);
                let want_g = element_series(&gg, id.pos, id.row, id.col);
                assert_eq!(
                    slab.canonical_series(0, e_local),
                    want_l,
                    "canonical lesser {id:?}"
                );
                assert_eq!(
                    slab.canonical_series(1, e_local),
                    want_g,
                    "canonical greater {id:?}"
                );
                let m = id.mirror();
                let want_ml = element_series(&gl, m.pos, m.row, m.col);
                assert_eq!(
                    slab.mirror_series(0, e_local),
                    want_ml,
                    "mirror lesser {id:?}"
                );
            }
            // Round trip restores the energy-major slices exactly.
            for (k_local, k) in plan.energy_ranges[rank].clone().enumerate() {
                assert!(out[0][k_local].to_dense().approx_eq(&gl[k].to_dense(), 0.0));
                assert!(out[1][k_local].to_dense().approx_eq(&gg[k].to_dense(), 0.0));
            }
        }

        // Byte accounting: measured == expected exactly.
        let total_sent: u64 = results.iter().map(|(_, _, s)| *s).sum();
        assert_eq!(
            stats
                .alltoall_bytes
                .load(std::sync::atomic::Ordering::Relaxed)
                % 2,
            0
        );
        assert!(total_sent > 0 || n_ranks == 1);
        if symmetry_reduced {
            // Exactly the canonical values travel, forward and backward.
            let mut expect = 0u64;
            for r in 0..n_ranks {
                for q in 0..n_ranks {
                    if q == r {
                        continue;
                    }
                    expect += 2
                        * 2
                        * (plan.element_ranges[q].len()
                            * plan.energy_ranges[r].len()
                            * BYTES_PER_VALUE) as u64;
                }
            }
            let measured = stats
                .alltoall_bytes
                .load(std::sync::atomic::Ordering::Relaxed);
            assert_eq!(measured, expect);
        }
    }

    #[test]
    fn roundtrip_is_exact_symmetry_reduced() {
        for n_ranks in [1usize, 2, 4] {
            roundtrip(n_ranks, true);
        }
    }

    #[test]
    fn roundtrip_is_exact_full_wire_format() {
        for n_ranks in [1usize, 2, 3] {
            roundtrip(n_ranks, false);
        }
    }

    #[test]
    fn partition_slice_round_trips_exactly_and_beats_the_broadcast() {
        use quatrex_rgf::spatial_partition_layout;
        let (nb, bs) = (9, 3);
        let a = symmetric_quantity(1, nb, bs, 0.7).pop().unwrap();
        let b1 = symmetric_quantity(1, nb, bs, 1.3).pop().unwrap();
        let b2 = symmetric_quantity(1, nb, bs, -0.4).pop().unwrap();
        let parts = spatial_partition_layout(nb, 3).unwrap();
        let full = PartitionSlice::full_broadcast_values(nb, bs, 2);
        for (p, part) in parts.iter().enumerate() {
            let slice = PartitionSlice::extract(&a, &[&b1, &b2], part, p);
            assert!(
                slice.wire_values() * 2 < full,
                "slice {} of full {full}",
                slice.wire_values()
            );
            let mut buf = Vec::new();
            slice.encode(&mut buf);
            assert_eq!(buf.len(), slice.wire_values());
            let mut it = buf.iter();
            let back = PartitionSlice::decode(&mut it, bs);
            assert!(it.next().is_none(), "decode consumes the full message");
            assert_eq!(back.partition, p);
            assert_eq!(back.system.n_rhs(), 2);
            assert!(back
                .system
                .a_int
                .to_dense()
                .approx_eq(&slice.system.a_int.to_dense(), 0.0));
            for (x, y) in back.system.rhs_int.iter().zip(&slice.system.rhs_int) {
                assert!(x.to_dense().approx_eq(&y.to_dense(), 0.0));
            }
            assert_eq!(back.system.boundaries.len(), slice.system.boundaries.len());
            for (x, y) in back.system.boundaries.iter().zip(&slice.system.boundaries) {
                assert_eq!((x.sep, x.left), (y.sep, y.left));
                assert!(x.a_sep_to_int.approx_eq(&y.a_sep_to_int, 0.0));
                assert!(x.a_int_to_sep.approx_eq(&y.a_int_to_sep, 0.0));
                for r in 0..2 {
                    assert!(x.rhs_sep_to_int[r].approx_eq(&y.rhs_sep_to_int[r], 0.0));
                    assert!(x.rhs_int_to_sep[r].approx_eq(&y.rhs_int_to_sep[r], 0.0));
                }
            }
        }
    }

    #[test]
    fn empty_interior_partition_slice_is_header_only() {
        use quatrex_rgf::spatial_partition_layout;
        let (nb, bs) = (6, 2);
        let a = symmetric_quantity(1, nb, bs, 0.5).pop().unwrap();
        let b = symmetric_quantity(1, nb, bs, 2.1).pop().unwrap();
        let parts = spatial_partition_layout(nb, 3).unwrap();
        assert_eq!(parts[1].interior().len(), 0);
        let slice = PartitionSlice::extract(&a, &[&b], &parts[1], 1);
        assert_eq!(slice.wire_values(), 2, "empty interior ships headers only");
        let mut buf = Vec::new();
        slice.encode(&mut buf);
        let mut it = buf.iter();
        let back = PartitionSlice::decode(&mut it, bs);
        assert_eq!(back.system.a_int.n_blocks(), 0);
        assert!(back.system.boundaries.is_empty());
    }

    #[test]
    fn batched_transposition_reproduces_the_unbatched_slabs_exactly() {
        // Forward and backward batches must reassemble the identical slabs
        // and energy-major matrices the single-shot path produces, for every
        // batch count including the degenerate B > n_energies_per_group case.
        let (nb, bs, ne, n_groups) = (3usize, 2usize, 8usize, 2usize);
        for symmetry_reduced in [true, false] {
            let plan = TranspositionPlan::new(nb, bs, ne, n_groups, 1, symmetry_reduced);
            let gl = symmetric_quantity(ne, nb, bs, 0.3);
            let gg = symmetric_quantity(ne, nb, bs, 1.9);
            let local = |x: &EnergyResolved, src: usize| -> Vec<BlockTridiagonal> {
                x[plan.energy_ranges[src].clone()].to_vec()
            };
            for b in [1usize, 2, 3, 7] {
                let batches = TranspositionBatchPlan::new(&plan, b);
                // Forward: batch-wise absorption must reproduce the
                // single-shot slab of every group exactly.
                let mut slabs = Vec::new();
                for group in 0..n_groups {
                    let want = plan.gather_elements(
                        group,
                        (0..n_groups)
                            .map(|src| {
                                let mut p = plan
                                    .scatter_forward(src, &[&local(&gl, src), &local(&gg, src)]);
                                std::mem::take(&mut p[group])
                            })
                            .collect(),
                        2,
                    );
                    let mut slab =
                        ElementSlab::zeroed(plan.element_ranges[group].clone(), 2, plan.n_energies);
                    for batch in 0..b {
                        let recv = (0..n_groups)
                            .map(|src| {
                                let mut p = plan.scatter_forward_batch(
                                    src,
                                    &[&local(&gl, src), &local(&gg, src)],
                                    batches.local_ranges[src][batch].clone(),
                                );
                                std::mem::take(&mut p[group])
                            })
                            .collect();
                        plan.absorb_forward_batch(
                            group,
                            &mut slab,
                            recv,
                            &batches.global_ranges(&plan, batch),
                        );
                    }
                    assert_eq!(slab.canonical, want.canonical, "canonical B={b}");
                    assert_eq!(slab.mirror, want.mirror, "mirror B={b}");
                    slabs.push(slab);
                }

                // Backward: batch-wise shipping must reproduce the
                // single-shot energy-major gather of every destination.
                fn comps_of(s: &ElementSlab) -> [BackComponent<'_>; 2] {
                    [
                        BackComponent::Symmetric {
                            canonical: &s.canonical[0],
                            mirror: &s.mirror[0],
                        },
                        BackComponent::Symmetric {
                            canonical: &s.canonical[1],
                            mirror: &s.mirror[1],
                        },
                    ]
                }
                for dst in 0..n_groups {
                    let want_out = plan.gather_energies(
                        dst,
                        (0..n_groups)
                            .map(|src| {
                                let mut p = plan.scatter_backward(src, &comps_of(&slabs[src]));
                                std::mem::take(&mut p[dst])
                            })
                            .collect(),
                        &[true, true],
                    );
                    let n_local = plan.energy_ranges[dst].len();
                    let mut got: Vec<EnergyResolved> = (0..2)
                        .map(|_| vec![BlockTridiagonal::zeros(nb, bs); n_local])
                        .collect();
                    for batch in 0..b {
                        let recv = (0..n_groups)
                            .map(|src| {
                                let mut p = plan.scatter_backward_batch(
                                    src,
                                    &comps_of(&slabs[src]),
                                    &batches.global_ranges(&plan, batch),
                                );
                                std::mem::take(&mut p[dst])
                            })
                            .collect();
                        plan.absorb_backward_batch(
                            dst,
                            &mut got,
                            recv,
                            &[true, true],
                            batches.global_range(&plan, dst, batch),
                        );
                    }
                    for c in 0..2 {
                        for k in 0..n_local {
                            assert!(
                                got[c][k]
                                    .to_dense()
                                    .approx_eq(&want_out[c][k].to_dense(), 0.0),
                                "backward B={b} comp {c} energy {k}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batch_plan_covers_every_energy_exactly_once() {
        let plan = TranspositionPlan::new(3, 2, 10, 3, 1, true);
        // The energy split is pinned: the remainder lands on the last group.
        assert_eq!(plan.energy_ranges, vec![0..3, 3..6, 6..10]);
        for b in [1usize, 2, 4, 11] {
            let batches = TranspositionBatchPlan::new(&plan, b);
            // Per group the local sub-ranges tile 0..n_local.
            for (g, ranges) in batches.local_ranges.iter().enumerate() {
                assert_eq!(ranges.len(), b);
                let mut next = 0usize;
                for r in ranges {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, plan.energy_ranges[g].len());
            }
            // The union of the arrived batches is the full grid, in order.
            let mut all = Vec::new();
            for batch in 0..b {
                all.extend(batches.arrived_global(&plan, batch));
            }
            all.sort_unstable();
            assert_eq!(all, (0..10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn symmetry_reduction_roughly_halves_the_wire_volume() {
        let (nb, bs, ne, n_ranks) = (4, 3, 8, 4);
        let plan_sym = TranspositionPlan::new(nb, bs, ne, n_ranks, 1, true);
        let plan_full = TranspositionPlan::new(nb, bs, ne, n_ranks, 1, false);
        let g = symmetric_quantity(ne, nb, bs, 0.5);
        let local: Vec<BlockTridiagonal> = g[plan_sym.energy_ranges[0].clone()].to_vec();
        let sym_bytes = plan_sym.off_rank_bytes(0, &plan_sym.scatter_forward(0, &[&local]));
        let full_bytes = plan_full.off_rank_bytes(0, &plan_full.scatter_forward(0, &[&local]));
        let ratio = sym_bytes as f64 / full_bytes as f64;
        assert!(ratio > 0.5 && ratio < 0.62, "ratio {ratio}");
    }
}
