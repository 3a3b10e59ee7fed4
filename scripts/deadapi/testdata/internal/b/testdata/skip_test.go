package skip

import "fixture/internal/a"

// Nothing under a testdata directory reads: OwnTestOnly stays flagged.
var _ = a.OwnTestOnly
