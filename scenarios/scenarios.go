// Package scenarios embeds the committed scenario files so tests,
// experiments and golden checks load them independent of the working
// directory. The files are the only description of the runs behind
// the fig8 (elastic), restart-cost, spot-dollars and chaos-stress
// experiments; `varuna-sim run scenarios/<name>.yaml` replays any of
// them from the repo root.
package scenarios

import "embed"

// FS holds every committed scenario file.
//
//go:embed *.yaml
var FS embed.FS
