package serving

import (
	"fmt"
	"slices"
	"strings"
)

// ReplicaRole tags what phase of a generation a replica serves under
// prefill/decode disaggregation (PAPER.md §5 splits serving into a
// compute-bound batched-prefill phase and a latency-bound ragged-decode
// phase; role tags let the Router give each phase its own hardware).
type ReplicaRole int

const (
	// RoleMixed serves whole sessions — prefill and decode on the same
	// replica, the pre-disaggregation behaviour and the default.
	RoleMixed ReplicaRole = iota
	// RolePrefill runs packed prefill passes (and classify batches, which
	// are prefill-shaped work) and hands sessions off before decode.
	RolePrefill
	// RoleDecode receives migrated KV and runs the ragged decode loop;
	// it sees no prefill or classify traffic.
	RoleDecode
)

// replicaRoles lists every role in wire order — the single source the
// String/Parse pair and their error messages enumerate from.
var replicaRoles = []ReplicaRole{RoleMixed, RolePrefill, RoleDecode}

// String returns the role's wire name.
func (r ReplicaRole) String() string {
	switch r {
	case RoleMixed:
		return "mixed"
	case RolePrefill:
		return "prefill"
	case RoleDecode:
		return "decode"
	}
	return fmt.Sprintf("ReplicaRole(%d)", int(r))
}

// roleNames joins every valid wire name for error messages, so a bad flag
// value tells the operator what would have worked.
func roleNames() string {
	names := make([]string, len(replicaRoles))
	for i, r := range replicaRoles {
		names[i] = r.String()
	}
	return strings.Join(names, ", ")
}

// ParseReplicaRole maps a wire name back to the role — the element parser
// behind the -roles flag.
func ParseReplicaRole(s string) (ReplicaRole, error) {
	for _, r := range replicaRoles {
		if r.String() == s {
			return r, nil
		}
	}
	return 0, fmt.Errorf("serving: unknown replica role %q (want one of: %s)", s, roleNames())
}

// ParseReplicaRoles parses a comma-separated role list ("prefill,decode,
// mixed") — the -roles flag format, one entry per replica in order.
func ParseReplicaRoles(s string) ([]ReplicaRole, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	roles := make([]ReplicaRole, 0, len(parts))
	for _, p := range parts {
		r, err := ParseReplicaRole(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		roles = append(roles, r)
	}
	return roles, nil
}

// CheckRoles rejects a role list that does not tag every one of n replicas
// (one role per replica, or none: all mixed) or that leaves a generation
// nowhere to run end to end. The Router and the fleet simulator both
// validate with it, so the two cannot drift apart.
func CheckRoles(roles []ReplicaRole, n int) error {
	switch {
	case len(roles) > 0 && len(roles) != n:
		return fmt.Errorf("serving: %d replica roles for %d replicas (want one role per replica, or none)",
			len(roles), n)
	case len(roles) > 0 && !slices.Contains(roles, RoleMixed) && !(slices.Contains(roles, RolePrefill) && slices.Contains(roles, RoleDecode)):
		return fmt.Errorf("serving: roles %v can serve no generation end-to-end (want a mixed replica, or at least one prefill and one decode)", roles)
	}
	return nil
}
