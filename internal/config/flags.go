package config

import (
	"flag"
	"fmt"
	"os"
	"reflect"
)

// flagRow declares one configuration flag: its name, its usage text and the
// Config field it sets. The table below is the only place a flag is named.
type flagRow struct {
	name, usage string
	field       func(*Config) any // a pointer to the field in the given Config
}

var flagTable = []flagRow{
	{"placement", "MC placement: bottom, top, edge, top-bottom, diamond", func(c *Config) any { return &c.Placement }},
	{"routing", "routing algorithm: xy, yx, xy-yx", func(c *Config) any { return &c.NoC.Routing }},
	{"vcpolicy", "VC policy: split, asymmetric, monopolized, partial, shared", func(c *Config) any { return &c.NoC.VCPolicy }},
	{"vcs", "virtual channels per port, 1-12", func(c *Config) any { return &c.NoC.VCsPerPort }},
	{"depth", "VC buffer depth in flits", func(c *Config) any { return &c.NoC.VCDepth }},
	{"reqvcs", "request VCs under the asymmetric policy", func(c *Config) any { return &c.NoC.AsymmetricRequestVCs }},
	{"cycles", "measurement cycles", func(c *Config) any { return &c.MeasureCycles }},
	{"warmup", "warmup cycles", func(c *Config) any { return &c.WarmupCycles }},
	{"seed", "random seed", func(c *Config) any { return &c.Seed }},
	{"dual", "use two physical subnetworks instead of VC separation", func(c *Config) any { return &c.NoC.PhysicalSubnets }},
	{"halfwidth", "with -dual, give each subnet half-width channels (equal wire budget)", func(c *Config) any { return &c.NoC.SubnetHalfWidth }},
	{"workers", "parallel cycle-kernel domains (0 = GOMAXPROCS, 1 = serial; results are bit-identical)", func(c *Config) any { return &c.NoC.Workers }},
	{"allow-unsafe", "accept configurations the protocol-deadlock analysis rejects", func(c *Config) any { return &c.AllowUnsafe }},
}

// Flags is the one flag→configuration mapping shared by every CLI. Bind it
// with BindFlags, parse, then call Config (full configuration) or Overrides
// (only the flags the user actually set, for a CLI with base configurations
// of its own).
type Flags struct {
	fs   *flag.FlagSet
	file string
	vals Config // Default() with the parsed flags written into it
}

// BindFlags registers -config and every row of the flag table on fs and
// returns the handle to read them back after parsing. Defaults come from
// Default(), so `tool` with no flags simulates the Table 2 baseline.
func BindFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{fs: fs, vals: Default()}
	fs.StringVar(&f.file, "config", "", "JSON configuration file (explicitly set flags override it)")
	for _, r := range flagTable {
		switch p := r.field(&f.vals).(type) {
		case *int:
			fs.IntVar(p, r.name, *p, r.usage)
		case *uint64:
			fs.Uint64Var(p, r.name, *p, r.usage)
		case *bool:
			fs.BoolVar(p, r.name, *p, r.usage)
		case *Placement:
			fs.StringVar((*string)(p), r.name, string(*p), r.usage)
		case *Routing:
			fs.StringVar((*string)(p), r.name, string(*p), r.usage)
		case *VCPolicy:
			fs.StringVar((*string)(p), r.name, string(*p), r.usage)
		default:
			panic(fmt.Sprintf("config: flag -%s sets a %T", r.name, p))
		}
	}
	return f
}

// apply copies the fields whose flags were explicitly set onto base.
func (f *Flags) apply(base Config) Config {
	f.fs.Visit(func(fl *flag.Flag) {
		for _, r := range flagTable {
			if r.name == fl.Name {
				reflect.ValueOf(r.field(&base)).Elem().Set(reflect.ValueOf(r.field(&f.vals)).Elem())
			}
		}
	})
	return base
}

// Overrides returns the step that copies only the explicitly set flags onto
// a base configuration. It refuses -config: a file is a whole base
// configuration, which the step cannot carry, and dropping it would silently
// simulate the defaults. The FlagSet must have been parsed.
func (f *Flags) Overrides() (func(Config) Config, error) {
	if f.file != "" {
		return nil, fmt.Errorf("-config %s: this command layers flags over its own base configurations and reads no configuration file; set the individual flags (-placement, -routing, -vcpolicy, -vcs, -cycles, ...) instead", f.file)
	}
	return f.apply, nil
}

// Config assembles the final configuration: the -config file (or Default()
// when absent) with the explicitly set flags layered on top, validated.
func (f *Flags) Config() (Config, error) {
	base := Default()
	if f.file != "" {
		data, err := os.ReadFile(f.file)
		if err != nil {
			return Config{}, err
		}
		base, err = Decode(data)
		if err != nil {
			return Config{}, fmt.Errorf("%s: %w", f.file, err)
		}
	}
	cfg := f.apply(base)
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}
