package flashsim

import (
	"flag"
	"reflect"
	"strings"
	"testing"
)

// runConfigFields flattens a RunConfig into its JSON field names, the
// filer block's fields as "filer.<name>", mapped to their values (a nil
// pointer stays nil, a set pointer is dereferenced), so two snapshots
// compare field by field.
func runConfigFields(rc RunConfig) map[string]any {
	out := make(map[string]any)
	var walk func(prefix string, v reflect.Value)
	walk = func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			name := prefix + strings.Split(v.Type().Field(i).Tag.Get("json"), ",")[0]
			f := v.Field(i)
			switch {
			case f.Kind() == reflect.Pointer && f.Elem().Kind() == reflect.Struct:
				if f.IsNil() {
					f = reflect.New(f.Type().Elem())
				}
				walk(name+".", f.Elem())
			case f.Kind() == reflect.Pointer:
				out[name] = nil
				if !f.IsNil() {
					out[name] = f.Elem().Interface()
				}
			default:
				out[name] = f.Interface()
			}
		}
	}
	walk("", reflect.ValueOf(rc))
	return out
}

// TestRunConfigSurfaceParity locks the one schema from both directions:
// every registered flag sets exactly one RunConfig field, and every JSON
// field but the CLI's two sweep lists has a flag.
func TestRunConfigSurfaceParity(t *testing.T) {
	sweptByCLI := map[string]bool{"wss_gb": true, "write_pct": true}
	flagFor := make(map[string]string)

	var probe RunConfig
	names := flag.NewFlagSet("names", flag.ContinueOnError)
	probe.RegisterFlags(names)
	fields := runConfigFields(probe)
	names.VisitAll(func(fl *flag.Flag) {
		rc := DefaultRunConfig(128)
		fs := flag.NewFlagSet("flashsim", flag.ContinueOnError)
		rc.RegisterFlags(fs)
		before := runConfigFields(rc)
		value := "3"
		if b, ok := fl.Value.(interface{ IsBoolFlag() bool }); ok && b.IsBoolFlag() {
			value = "true"
			if fs.Lookup(fl.Name).DefValue == "true" {
				value = "false"
			}
		}
		if err := fs.Set(fl.Name, value); err != nil {
			t.Fatalf("-%s=%s: %v", fl.Name, value, err)
		}
		var changed []string
		for name, v := range runConfigFields(rc) {
			if !reflect.DeepEqual(v, before[name]) {
				changed = append(changed, name)
			}
		}
		if len(changed) != 1 {
			t.Errorf("-%s=%s changed fields %v, want exactly one", fl.Name, value, changed)
			return
		}
		if prev, dup := flagFor[changed[0]]; dup {
			t.Errorf("field %s set by both -%s and -%s", changed[0], prev, fl.Name)
		}
		flagFor[changed[0]] = fl.Name
	})
	for name := range fields {
		if sweptByCLI[name] {
			if fl, ok := flagFor[name]; ok {
				t.Errorf("sweep field %s also has flag -%s", name, fl)
			}
			continue
		}
		if _, ok := flagFor[name]; !ok {
			t.Errorf("RunConfig field %s has no CLI flag", name)
		}
	}
}

// TestDefaultRunConfigParity checks that the run-config defaults build
// the library's baseline configuration at every scale the repo runs.
func TestDefaultRunConfigParity(t *testing.T) {
	for _, s := range []int{128, 2048, 4096} {
		got, err := DefaultRunConfig(s).Config()
		if err != nil {
			t.Fatalf("scale %d: %v", s, err)
		}
		if want := ScaledConfig(s); !reflect.DeepEqual(got, want) {
			t.Errorf("scale %d: DefaultRunConfig.Config() =\n%+v\nwant ScaledConfig =\n%+v", s, got, want)
		}
	}
}
