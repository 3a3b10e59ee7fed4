package skip

import "fixture/internal/a"

// Nothing under a hidden directory reads: OwnTestOnly stays flagged.
var _ = a.OwnTestOnly
