//! Hardware models of the paper's two platforms (Sec. V).
//!
//! * **ARM**: Fugaku — one A64FX per node, 4 CMGs (= 4 MPI ranks) of
//!   12 compute cores, 3.38 TFLOPS and 1024 GB/s HBM2 per node,
//!   6D-torus (Tofu-D) interconnect at ~6.8 GB/s per link.
//! * **GPU**: 4× NVIDIA A100-40GB per node (one rank per GPU),
//!   9.7 TFLOPS FP64 and 1.5 TB/s HBM2 each, fat-tree network without
//!   GPUDirect (PCIe-staged, which the paper blames for higher
//!   communication ratios).
//!
//! `flop_eff`/`bw_eff` are *calibration constants*: achieved fractions of
//! peak for this workload, fitted once against the paper's absolute
//! anchors (see `calibration.rs`) and then frozen for every figure.

/// One platform's per-rank capabilities and network parameters.
#[derive(Clone, Debug)]
pub struct Platform {
    /// Human-readable name used in harness output.
    pub name: &'static str,
    /// Peak FP64 throughput per rank (flops/s).
    pub flops_per_rank: f64,
    /// Peak memory bandwidth per rank (bytes/s).
    pub mem_bw_per_rank: f64,
    /// Achieved fraction of peak flops (calibrated).
    pub flop_eff: f64,
    /// Achieved fraction of peak bandwidth (calibrated).
    pub bw_eff: f64,
    /// Inter-node network bandwidth per rank (bytes/s).
    pub net_bw: f64,
    /// Network latency per message (s).
    pub net_latency: f64,
    /// Intra-node shared-memory staging bandwidth (bytes/s) — the rate at
    /// which the two-level collectives move data through MPI-3 shared
    /// windows between ranks of the same node.
    pub shm_bw: f64,
    /// Intra-node shared-memory staging latency per access (s).
    pub shm_latency: f64,
    /// Extra multiplier on broadcast traffic (global congestion vs the
    /// single-hop neighbor exchanges of the ring method — the 6D torus
    /// punishes broadcasts more than the fat tree).
    pub bcast_penalty: f64,
    /// Whether ranks execute accelerator-style (batched device kernels,
    /// as on the GPU platform) rather than per-call host threading —
    /// the attribute the platform's precision policy keys off.
    pub accelerator: bool,
    /// MPI ranks per node.
    pub ranks_per_node: usize,
    /// Usable memory per rank (bytes).
    pub mem_per_rank: f64,
    /// Fixed overhead per kernel invocation (launch latency; the paper's
    /// multi-batch strategy exists to amortize this on the GPU).
    pub kernel_overhead: f64,
    /// Band-batch saturation constant: per-band kernels reach full
    /// throughput only when `nb >> batch_sat` (device underutilization at
    /// small local batches — the paper's Sec. VIII-B efficiency loss).
    pub batch_sat: f64,
    /// Effective fraction of a full grid pass paid per (k,i,j) triple in
    /// the baseline Alg. 2 accumulation (multi-batch fusion efficiency;
    /// calibrated against the paper's Diag speedups).
    pub triple_pass_eff: f64,
}

impl Platform {
    /// Fugaku A64FX (one rank per CMG, as in Sec. VIII).
    pub fn fugaku_arm() -> Platform {
        Platform {
            name: "ARM (Fugaku A64FX)",
            flops_per_rank: 3.38e12 / 4.0,
            mem_bw_per_rank: 1024e9 / 4.0,
            flop_eff: 0.12,
            bw_eff: 0.16,
            net_bw: 6.8e9 / 4.0,
            net_latency: 1.2e-6,
            shm_bw: 2.0e11,
            shm_latency: 0.15e-6,
            bcast_penalty: 4.3,
            accelerator: false,
            ranks_per_node: 4,
            mem_per_rank: 8.0e9,
            kernel_overhead: 1.0e-6,
            batch_sat: 1.0,
            triple_pass_eff: 0.127,
        }
    }

    /// A100 GPU cluster (one rank per GPU, PCIe-staged communication).
    pub fn gpu_a100() -> Platform {
        Platform {
            name: "GPU (NVIDIA A100)",
            flops_per_rank: 9.7e12,
            mem_bw_per_rank: 1.5e12,
            flop_eff: 0.45,
            bw_eff: 0.85,
            net_bw: 12.5e9 / 4.0,
            net_latency: 4.0e-6,
            shm_bw: 6.4e10,
            shm_latency: 1.0e-6,
            bcast_penalty: 4.0,
            accelerator: true,
            ranks_per_node: 4,
            mem_per_rank: 40.0e9,
            kernel_overhead: 1.0e-5,
            batch_sat: 12.0,
            triple_pass_eff: 0.044,
        }
    }

    /// What-if platform for the paper's closing remark of Sec. VIII-D:
    /// "on GPU platforms equipped with NVLink, such as Summit, the
    /// communication performance of our program will be further
    /// improved." Same A100 compute, but GPUDirect RDMA (no PCIe
    /// staging): ~2.7× the injection bandwidth, lower software overhead,
    /// NVLink-class intra-node transfers.
    pub fn gpu_nvlink() -> Platform {
        let mut p = Self::gpu_a100();
        p.name = "GPU (A100 + NVLink/GPUDirect)";
        p.net_bw = 25.0e9 / 2.0;
        p.net_latency = 1.5e-6;
        p.bcast_penalty = 2.0;
        p
    }

    /// Machine-balance ratio flop/byte (the paper quotes 3.4 for ARM and
    /// 6.5 for the GPU platform — why ARM scales better on a
    /// bandwidth-bound code).
    pub fn flops_per_byte(&self) -> f64 {
        self.flops_per_rank / self.mem_bw_per_rank
    }

    /// Time to execute a kernel with the given flop and byte counts
    /// (roofline: the slower of the compute and memory streams).
    pub fn kernel_time(&self, flops: f64, bytes: f64) -> f64 {
        let tf = flops / (self.flops_per_rank * self.flop_eff);
        let tb = bytes / (self.mem_bw_per_rank * self.bw_eff);
        self.kernel_overhead + tf.max(tb)
    }

    /// Throughput fraction achieved with `nb` bands resident per rank
    /// (saturation curve `nb / (nb + batch_sat)`).
    pub fn batch_efficiency(&self, nb: f64) -> f64 {
        nb / (nb + self.batch_sat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_balance_matches_paper() {
        // Sec. VIII-B: 3.4 flop/byte (ARM) vs 6.5 flop/byte (GPU).
        let arm = Platform::fugaku_arm();
        let gpu = Platform::gpu_a100();
        assert!((arm.flops_per_byte() - 3.3).abs() < 0.3, "{}", arm.flops_per_byte());
        assert!((gpu.flops_per_byte() - 6.5).abs() < 0.3, "{}", gpu.flops_per_byte());
    }

    #[test]
    fn kernel_time_roofline() {
        let p = Platform::gpu_a100();
        // Pure compute: time = overhead + flops / achieved flops.
        let t1 = p.kernel_time(1e12, 0.0);
        let expect1 = p.kernel_overhead + 1e12 / (p.flops_per_rank * p.flop_eff);
        assert!((t1 - expect1).abs() / t1 < 1e-12);
        // Bandwidth-bound kernel: bytes dominate.
        let t2 = p.kernel_time(1.0, 1e12);
        let expect2 = p.kernel_overhead + 1e12 / (p.mem_bw_per_rank * p.bw_eff);
        assert!((t2 - expect2).abs() / t2 < 1e-12);
        // Max semantics.
        assert!(p.kernel_time(1e12, 1e12) >= t1.max(t2) * 0.999);
        // Batch efficiency saturates.
        assert!(p.batch_efficiency(1.0) < p.batch_efficiency(100.0));
        assert!(p.batch_efficiency(10_000.0) > 0.99);
    }

    #[test]
    fn gpu_rank_is_faster_but_network_poorer() {
        let arm = Platform::fugaku_arm();
        let gpu = Platform::gpu_a100();
        assert!(gpu.flops_per_rank > 10.0 * arm.flops_per_rank);
        // Per-flop network capability is worse on the GPU cluster — the
        // paper's explanation for its higher communication ratio.
        let arm_net_per_flop = arm.net_bw / arm.flops_per_rank;
        let gpu_net_per_flop = gpu.net_bw / gpu.flops_per_rank;
        assert!(arm_net_per_flop > 5.0 * gpu_net_per_flop);
    }
}
