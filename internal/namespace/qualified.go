package namespace

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Volume-qualified file-set IDs. A multi-tenant fleet addresses file sets
// as "<volume>/<fileset>": the volume is the tenant, the file set is a
// subtree of that tenant's namespace, and the qualified ID is what flows
// through placement hashing, the wire protocol, and the journal. File-set
// IDs without a separator are legacy single-tenant names and belong to the
// implicit DefaultVolume, so every pre-volume deployment keeps working
// unchanged.

// DefaultVolume is the implicit tenant for unqualified file-set IDs.
const DefaultVolume = "default"

// VolumeSep separates the volume from the file set in a qualified ID.
const VolumeSep = "/"

// MaxVolumeName bounds volume names; they appear in metrics labels and on
// every wire frame, so keep them short.
const MaxVolumeName = 64

// ValidVolumeName rejects names that would break qualified-ID parsing or
// collide with system pseudo file sets: empty, containing the separator,
// leading "__" (reserved for system images like __fleet/map), control or
// space runes, invalid UTF-8, or over-long names.
func ValidVolumeName(vol string) error {
	if vol == "" {
		return fmt.Errorf("namespace: empty volume name")
	}
	if len(vol) > MaxVolumeName {
		return fmt.Errorf("namespace: volume name longer than %d bytes", MaxVolumeName)
	}
	if strings.Contains(vol, VolumeSep) {
		return fmt.Errorf("namespace: volume name %q contains %q", vol, VolumeSep)
	}
	if strings.HasPrefix(vol, "__") {
		return fmt.Errorf("namespace: volume name %q is reserved (leading __)", vol)
	}
	if !utf8.ValidString(vol) {
		return fmt.Errorf("namespace: volume name is not valid UTF-8")
	}
	for _, r := range vol {
		if unicode.IsControl(r) || unicode.IsSpace(r) {
			return fmt.Errorf("namespace: volume name %q contains control or space rune", vol)
		}
	}
	return nil
}

// QualifyFileSet builds the qualified ID "<vol>/<fs>". The volume must be
// a valid volume name and the file set must be a bare (separator-free,
// non-empty) name, so the result always splits back to its inputs.
func QualifyFileSet(vol, fs string) (string, error) {
	if err := ValidVolumeName(vol); err != nil {
		return "", err
	}
	if fs == "" {
		return "", fmt.Errorf("namespace: empty file set name")
	}
	if strings.Contains(fs, VolumeSep) {
		return "", fmt.Errorf("namespace: file set name %q contains %q", fs, VolumeSep)
	}
	return vol + VolumeSep + fs, nil
}

// SplitFileSet parses a possibly-qualified file-set ID. IDs without a
// separator belong to DefaultVolume; otherwise everything before the first
// separator is the volume (even when empty or reserved — callers that need
// validity run ValidVolumeName on the result).
func SplitFileSet(id string) (vol, fs string) {
	i := strings.Index(id, VolumeSep)
	if i < 0 {
		return DefaultVolume, id
	}
	return id[:i], id[i+len(VolumeSep):]
}

// VolumeOf reports the tenant a file-set ID belongs to.
func VolumeOf(id string) string {
	vol, _ := SplitFileSet(id)
	return vol
}

// SystemVolume reports whether vol is a reserved system namespace (the
// "__" prefix carried by pseudo file sets like __fleet/map): system
// volumes bypass volume admission, quotas, and placement policy.
func SystemVolume(vol string) bool {
	return strings.HasPrefix(vol, "__")
}
