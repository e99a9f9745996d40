package hw

// HydraCard is the per-card model of the Hydra prototype on a Xilinx Alveo
// U280: 512-lane compute units at 300 MHz, radix-4 NTT (a better match to
// N = 2^16 than Poseidon's radix-8, Section IV-B), MAD-style scratchpad reuse
// in front of HBM, and a DTU for switch-based card-to-card transfers.
func HydraCard() CardProfile {
	return CardProfile{
		Name:              "Hydra",
		ClockHz:           300e6,
		Lanes:             512,
		NTTPassEff:        0.85,
		ScratchpadHitRate: 0.80,
		HBMBandwidth:      460e9,
		Calibration:       1.0,

		EnergyNTT:    0.37e-3,
		EnergyMA:     0.03e-3,
		EnergyMM:     0.20e-3,
		EnergyAuto:   0.10e-3,
		EnergyHBM:    5e-9,
		EnergyNIC:    5e-12,
		IdlePowerW:   25,
		AreaMM2:      120, // 7nm RTL-normalized equivalent
		PowerBudgetW: 215,
		HasDTU:       true,

		KeySwitchDnum: 3,

		// 0.38 reproduces the 1.50x kernel-level batch-8 speedup measured at
		// the residue-batch seam in PR 9: 8/(0.38 + 0.62*8) = 1.498.
		BatchAmortFrac: 0.38,
	}
}

// HydraSCard is the Hydra single-card prototype: identical to the compute
// node of Hydra-M/L but without the DTU (Section V-A).
func HydraSCard() CardProfile {
	c := HydraCard()
	c.Name = "Hydra-S"
	c.HasDTU = false
	return c
}

// FABCard models FAB's single card: radix-2 NTT datapath with fewer lanes, a
// shallower on-chip buffer, and a wider key-switch decomposition.
func FABCard() CardProfile {
	return CardProfile{
		Name:              "FAB",
		ClockHz:           300e6,
		Lanes:             256,
		NTTPassEff:        0.70,
		ScratchpadHitRate: 0.45,
		HBMBandwidth:      460e9,
		Calibration:       1.0,

		EnergyNTT:    0.42e-3,
		EnergyMA:     0.033e-3,
		EnergyMM:     0.22e-3,
		EnergyAuto:   0.12e-3,
		EnergyHBM:    5e-9,
		EnergyNIC:    5e-12,
		IdlePowerW:   25,
		AreaMM2:      130,
		PowerBudgetW: 215,
		HasDTU:       false, // FAB transfers go through the host

		KeySwitchDnum: 5,
	}
}

// PoseidonCard models Poseidon: HBM-resident operands with no reuse-oriented
// scratchpad ("no efficient caching strategy, requiring frequent access to
// HBM", Section IV-B) but an efficient radix-8 NTT core.
func PoseidonCard() CardProfile {
	return CardProfile{
		Name:              "Poseidon",
		ClockHz:           300e6,
		Lanes:             512,
		NTTPassEff:        0.80,
		ScratchpadHitRate: 0.0,
		HBMBandwidth:      420e9,
		Calibration:       1.0,

		EnergyNTT:    0.39e-3,
		EnergyMA:     0.031e-3,
		EnergyMM:     0.21e-3,
		EnergyAuto:   0.11e-3,
		EnergyHBM:    5e-9,
		EnergyNIC:    5e-12,
		IdlePowerW:   25,
		AreaMM2:      125,
		PowerBudgetW: 215,
		HasDTU:       false,

		KeySwitchDnum: 3,
	}
}

// LinkProfile is one communication channel.
type LinkProfile struct {
	Bandwidth float64 // bytes/s
	Latency   float64 // seconds per message
}

// Transfer returns the seconds needed to move `bytes` over this link.
func (l LinkProfile) Transfer(bytes float64) float64 {
	return l.Latency + bytes/l.Bandwidth
}

// NetworkProfile describes how cards reach each other.
type NetworkProfile struct {
	Name string

	// Hydra path: DTU → switch → DTU.
	IntraServer LinkProfile // between cards in one server
	InterServer LinkProfile // between cards in different servers
	Broadcast   bool        // switch supports hardware broadcast

	// FAB path: FPGA → PCIe → host (→ LAN → host) → PCIe → FPGA.
	HostRelay       bool
	PCIe            LinkProfile
	LAN             LinkProfile
	PairDirect      bool    // FAB pairs two FPGAs with a direct network link
	HostSyncLatency float64 // host round-trip charged per synchronized dependency
}

// HydraNetwork is the switch-based interconnect of Fig. 4: QSFP ports into
// in-server and cross-server switches, point-to-point and broadcast modes.
func HydraNetwork() NetworkProfile {
	return NetworkProfile{
		Name:        "hydra",
		IntraServer: LinkProfile{Bandwidth: 12.5e9, Latency: 2e-6}, // 100 Gb/s QSFP
		// Cross-server traffic shares the oversubscribed uplinks to the top
		// switch, so its effective per-flow bandwidth is lower.
		InterServer: LinkProfile{Bandwidth: 5e9, Latency: 5e-6},
		Broadcast:   true,
	}
}

// FABNetwork is FAB's host-mediated interconnect (Section II-B1): paired
// FPGAs share a direct network link; any other transfer crosses PCIe to the
// host, the 10 Gb/s LAN between hosts, and PCIe down to the destination.
func FABNetwork() NetworkProfile {
	return NetworkProfile{
		Name:            "fab",
		HostRelay:       true,
		PCIe:            LinkProfile{Bandwidth: 16e9, Latency: 5e-6},    // Alveo U280 PCIe
		LAN:             LinkProfile{Bandwidth: 1.25e9, Latency: 30e-6}, // 10 Gb/s LAN
		PairDirect:      true,
		HostSyncLatency: 20e-6,
	}
}

// TransferTime returns the end-to-end seconds for one point-to-point message
// of `bytes` from card src to card dst, given cardsPerServer.
func (n NetworkProfile) TransferTime(bytes float64, src, dst, cardsPerServer int) float64 {
	if src == dst {
		return 0
	}
	if !n.HostRelay {
		if src/cardsPerServer == dst/cardsPerServer {
			return n.IntraServer.Transfer(bytes)
		}
		return n.InterServer.Transfer(bytes)
	}
	// FAB-style path.
	if n.PairDirect && src^1 == dst {
		// Paired boards exchange data over their direct network link.
		return n.LAN.Transfer(bytes)
	}
	t := n.PCIe.Transfer(bytes) + n.PCIe.Transfer(bytes) + n.HostSyncLatency
	// Boards attached to different hosts add a LAN hop.
	if src/cardsPerServer != dst/cardsPerServer {
		t += n.LAN.Transfer(bytes)
	}
	return t
}

// SendTime returns the sender-side occupancy of one transfer (or broadcast)
// of `bytes` from src to dsts: the time the card's TX path (DTU → switch, or
// FPGA → PCIe → host LAN replication for FAB) is busy injecting the data.
// The DTU's TX and RX engines are independent (full duplex), so this is the
// spacing between consecutive sends of one card.
func (n NetworkProfile) SendTime(bytes float64, src int, dsts []int, cardsPerServer int) float64 {
	if len(dsts) == 0 {
		return 0
	}
	if !n.HostRelay {
		link := n.IntraServer
		for _, dst := range dsts {
			if dst/cardsPerServer != src/cardsPerServer {
				link = n.InterServer
				break
			}
		}
		if len(dsts) > 1 && !n.Broadcast {
			return float64(len(dsts)) * link.Transfer(bytes)
		}
		return link.Transfer(bytes) // switch replicates a broadcast
	}
	// FAB: PCIe upload plus one LAN copy per remote host, serialized on the
	// source host's NIC.
	srcHost := src / cardsPerServer
	remote := map[int]bool{}
	for _, dst := range dsts {
		if h := dst / cardsPerServer; h != srcHost {
			remote[h] = true
		}
	}
	return n.PCIe.Transfer(bytes) + n.HostSyncLatency + float64(len(remote))*n.LAN.Transfer(bytes)
}

// RecvTime returns the receiver-side occupancy of one arrival of `bytes`:
// the drain through the destination port (switch → DTU → HBM, or host →
// PCIe → FPGA for FAB). Arrivals at one card serialize on this.
func (n NetworkProfile) RecvTime(bytes float64, src, dst, cardsPerServer int) float64 {
	if !n.HostRelay {
		if src/cardsPerServer == dst/cardsPerServer {
			return bytes / n.IntraServer.Bandwidth
		}
		return bytes / n.InterServer.Bandwidth
	}
	return n.PCIe.Transfer(bytes)
}

// ResourceUtilization is one row of the FPGA utilization report (Table IV).
type ResourceUtilization struct {
	Resource  string
	Used      int
	Available int
}

// Percent returns the utilization percentage.
func (r ResourceUtilization) Percent() float64 {
	return 100 * float64(r.Used) / float64(r.Available)
}

// HydraResourceUtilization reproduces Table IV: the single-card Hydra design
// on the Alveo U280. DSPs serve the NTT and MM multipliers (96.5%); BRAM is
// the CU data cache; URAM caches the evaluation keys.
func HydraResourceUtilization() []ResourceUtilization {
	return []ResourceUtilization{
		{Resource: "LUTs (k)", Used: 997, Available: 1304},
		{Resource: "FFs (k)", Used: 1375, Available: 2607},
		{Resource: "DSP", Used: 8704, Available: 9024},
		{Resource: "BRAM", Used: 3072, Available: 4032},
		{Resource: "URAMs", Used: 768, Available: 962},
	}
}
