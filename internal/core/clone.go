package core

import "hotnoc/internal/noc"

// Clone returns an independent, ready-to-run copy of the system in its
// initial (pre-migration) state. The clone gets its own network, engine,
// and migrator — everything a run mutates — while sharing
// the read-only calibration products: the thermal network, energy and
// leakage tables, code, partition, the engine's static decode tables,
// placement and block source. Cloning is how a concurrent sweep turns one
// calibrated Built into per-worker systems without repeating placement
// annealing or energy calibration; a clone's runs are bitwise identical
// to the original's.
func (s *System) Clone() (*System, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	net, err := noc.New(s.Grid, s.Engine.Net.Cfg)
	if err != nil {
		return nil, err
	}
	eng, err := s.Engine.Clone(net)
	if err != nil {
		return nil, err
	}

	mig := NewMigrator(net)
	mig.StateFlits = s.Migrator.StateFlits
	mig.PhaseSyncCycles = s.Migrator.PhaseSyncCycles
	mig.DrainTimeout = s.Migrator.DrainTimeout

	return &System{
		Grid:         s.Grid,
		Therm:        s.Therm,
		Energy:       s.Energy,
		Leak:         s.Leak,
		ClockHz:      s.ClockHz,
		Engine:       eng,
		Migrator:     mig,
		InitialPlace: append([]int(nil), s.InitialPlace...),
		BlockSource:  s.BlockSource,
		IdleFrac:     s.IdleFrac,
	}, nil
}
