// Package accel models FPGA acceleration of the map phase, the paper's
// §3.4 post-acceleration study. Following the paper's methodology, the
// accelerated map time decomposes into three terms:
//
//	time_cpu   — the software residue that stays on the CPU
//	time_fpga  — the offloaded kernel on the FPGA
//	time_trans — data transfer between host and accelerator
//
// and the paper sweeps the kernel acceleration rate from 1x to 100x without
// committing to a specific design, which is exactly what Apply implements.
// The central question is how offloading shifts the big-vs-little choice
// for the code left on the CPU (Eq. 1's before/after speedup ratio).
package accel

import (
	"fmt"

	"heterohadoop/internal/sim"
	"heterohadoop/internal/units"
)

// FPGA describes the accelerator and its host link.
type FPGA struct {
	// Name identifies the part.
	Name string
	// LinkBandwidth is the host-accelerator transfer bandwidth.
	LinkBandwidth units.Bytes // per second
	// ActivePower is the accelerator's power draw while computing.
	ActivePower units.Watts
}

// Validate checks the FPGA parameters.
func (f FPGA) Validate() error {
	if f.LinkBandwidth <= 0 {
		return fmt.Errorf("accel: link bandwidth must be positive")
	}
	if f.ActivePower < 0 {
		return fmt.Errorf("accel: negative accelerator power")
	}
	return nil
}

// PCIeGen3x8 returns a typical mid-2010s FPGA card configuration: PCIe 3.0
// x8 effective bandwidth and a modest accelerator power envelope.
func PCIeGen3x8() FPGA {
	return FPGA{Name: "fpga-pcie3x8", LinkBandwidth: 6 * units.GB, ActivePower: 20}
}

// Offload configures which part of the map phase moves to hardware.
type Offload struct {
	// Acceleration is the hardware speedup of the offloaded kernel
	// relative to running it on the host CPU (the paper sweeps 1-100x).
	Acceleration float64
	// HWFraction is the fraction of map-phase work that is offloadable;
	// the remainder (record parsing, framework glue) stays on the CPU.
	HWFraction float64
	// TransferRatio is bytes moved across the link per input byte
	// (input to the accelerator plus results back).
	TransferRatio float64
}

// Validate checks the offload parameters.
func (o Offload) Validate() error {
	if o.Acceleration < 1 {
		return fmt.Errorf("accel: acceleration must be >= 1, got %v", o.Acceleration)
	}
	if o.HWFraction < 0 || o.HWFraction > 1 {
		return fmt.Errorf("accel: hardware fraction %v out of [0,1]", o.HWFraction)
	}
	if o.TransferRatio < 0 {
		return fmt.Errorf("accel: negative transfer ratio")
	}
	return nil
}

// DefaultOffload returns the baseline assumption used in the sweeps: 85% of
// map work is offloadable and the input crosses the link once each way's
// worth in total.
func DefaultOffload(acceleration float64) Offload {
	return Offload{Acceleration: acceleration, HWFraction: 0.85, TransferRatio: 1.2}
}

// Result is the post-acceleration outcome for one platform.
type Result struct {
	// MapTime is the accelerated map-phase duration
	// (time_cpu + time_fpga + time_trans).
	MapTime units.Seconds
	// TimeCPU, TimeFPGA and TimeTrans are its components.
	TimeCPU   units.Seconds
	TimeFPGA  units.Seconds
	TimeTrans units.Seconds
	// TotalTime is the full job duration with the accelerated map phase.
	TotalTime units.Seconds
	// TotalEnergy is the full job dynamic energy including the FPGA.
	TotalEnergy units.Joules
	// MapSpeedup is originalMap/MapTime.
	MapSpeedup float64
}

// Apply computes the post-acceleration job profile from a simulated report.
// input is the per-node data size the report was produced with.
func Apply(r sim.Report, input units.Bytes, fpga FPGA, off Offload) (Result, error) {
	if err := fpga.Validate(); err != nil {
		return Result{}, err
	}
	if err := off.Validate(); err != nil {
		return Result{}, err
	}
	mapStat := r.Phases[sim.PhaseMap]
	if mapStat.Time <= 0 {
		return Result{}, fmt.Errorf("accel: report has no map phase")
	}
	timeCPU := units.Seconds(float64(mapStat.Time) * (1 - off.HWFraction))
	timeFPGA := units.Seconds(float64(mapStat.Time) * off.HWFraction / off.Acceleration)
	timeTrans := units.Seconds(float64(input) * off.TransferRatio / float64(fpga.LinkBandwidth))
	newMap := timeCPU + timeFPGA + timeTrans

	// Energy: the CPU residue keeps the original map power; during FPGA
	// compute and transfers the host idles down to ~30% of map power while
	// the accelerator draws its active power.
	hostLow := units.Watts(float64(mapStat.AvgPower) * 0.3)
	newMapEnergy := units.Energy(mapStat.AvgPower, timeCPU) +
		units.Energy(hostLow+fpga.ActivePower, timeFPGA+timeTrans)

	total := r.Total.Time - mapStat.Time + newMap
	energy := r.Total.Energy - mapStat.Energy + newMapEnergy
	return Result{
		MapTime:     newMap,
		TimeCPU:     timeCPU,
		TimeFPGA:    timeFPGA,
		TimeTrans:   timeTrans,
		TotalTime:   total,
		TotalEnergy: energy,
		MapSpeedup:  float64(mapStat.Time) / float64(newMap),
	}, nil
}

// SpeedupRatio is the paper's Eq. 1: the Atom-to-Xeon migration speedup of
// the post-acceleration code divided by the migration speedup before
// acceleration. Values below 1 mean acceleration shrinks the big core's
// advantage for what remains on the CPU.
func SpeedupRatio(atomBefore, xeonBefore sim.Report, atomAfter, xeonAfter Result) float64 {
	before := float64(atomBefore.Total.Time) / float64(xeonBefore.Total.Time)
	after := float64(atomAfter.TotalTime) / float64(xeonAfter.TotalTime)
	if before == 0 {
		return 0
	}
	return after / before
}
