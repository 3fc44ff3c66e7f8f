package service

import (
	"errors"
	"sort"
	"strings"
	"sync"

	"codar/internal/arch"
	"codar/internal/calib"
)

// Registry resolves device names for mapping requests. Builtins delegate to
// arch.ByName (each resolution constructs a fresh device, so requests never
// share builtin state); custom devices uploaded via POST /v1/devices are
// stored once and shared read-only — mapping never mutates a Device, and
// per-request duration overrides operate on a shallow copy (see withDurations).
type Registry struct {
	mu     sync.RWMutex
	custom map[string]*arch.Device // keyed by lower-case name
	// calib holds uploaded calibration snapshots with their derived cost
	// models and hashes, keyed by the lower-case *resolved* device name so
	// aliases (tokyo, q20, ibm-q20-tokyo) share one record. Replacing a
	// snapshot changes its hash, which re-keys every cached mapping result.
	calib map[string]*Calibration
	// builtins memoizes arch.ByName results by request alias, so the hot
	// serving path (and especially the cache-hit path, which resolves only
	// to canonicalize the cache key) skips rebuilding the all-pairs
	// distance matrix per request. Bounded by count and by builtinSq, the
	// Σ qubits² its devices hold: a device that would pass either cap
	// (hostile parametric names like grid32x32) is built per request
	// instead of growing the memo.
	builtins  map[string]*arch.Device
	builtinSq int
}

// builtinMemoCap bounds the resolved-builtin memo's entries and
// builtinMemoQubitsSq the Σ qubits² of its devices (see
// Registry.builtins). A device keeps about 8 bytes per qubit² live, so the
// memo's devices hold at most about 67 MB, eight 1,024-qubit devices' worth.
const (
	builtinMemoCap      = 64
	builtinMemoQubitsSq = 1 << 23
)

// customCap bounds the custom-device store the way calibCap bounds the
// calibration store: each device keeps its n² tables live, up to about
// 8.4 MB at arch.MaxQubits, and uploads are never evicted, so registering
// the cap+1-th device is rejected (409).
const customCap = 64

// calibCap bounds the calibration store for the same reason builtinMemoCap
// bounds the builtin memo: parametric names (grid30x30, linear500, ...)
// resolve on demand, and each stored Calibration retains an n² cost-model
// matrix. Replacing an existing device's snapshot is always allowed; only
// calibrating the cap+1-th distinct device is rejected.
const calibCap = 64

// builtinNames are the concrete built-in models listed by GET /v1/devices.
// The parametric families (gridRxC, linearN, ringN) resolve through
// arch.ByName but are advertised separately as patterns.
var builtinNames = []string{"q5", "qx4", "melbourne", "tokyo", "enfield", "sycamore"}

// ParametricFamilies are the name patterns arch.ByName synthesises on
// demand (e.g. grid3x4, linear9, ring12).
var ParametricFamilies = []string{"gridRxC", "linearN", "ringN"}

// Calibration is one stored device calibration: the snapshot itself, the
// cost model derived from it at upload time (built once, shared read-only by
// every calibrated request), the canonical snapshot hash that joins the
// result-cache key, and the resolved device name the record is keyed under.
type Calibration struct {
	Snap   *calib.Snapshot
	Cost   *arch.CostModel
	Hash   string
	Device string
}

// NewRegistry builds an empty registry (builtins are always available).
func NewRegistry() *Registry {
	return &Registry{
		custom:   make(map[string]*arch.Device),
		builtins: make(map[string]*arch.Device),
		calib:    make(map[string]*Calibration),
	}
}

// Resolve returns the device for a user-facing name: custom devices win,
// then the (memoized) builtin catalogue. Resolved devices are shared and
// read-only; mapping never mutates a Device, and duration overrides copy
// first (withDurations). The error distinguishes "unknown" for the 404
// mapping in the handlers.
func (r *Registry) Resolve(name string) (*arch.Device, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	r.mu.RLock()
	dev, ok := r.custom[key]
	if !ok {
		dev, ok = r.builtins[key]
	}
	r.mu.RUnlock()
	if ok {
		return dev, nil
	}
	dev, err := arch.ByName(name)
	if err != nil {
		return nil, err
	}
	sq := dev.NumQubits * dev.NumQubits
	r.mu.Lock()
	if _, ok := r.builtins[key]; !ok && len(r.builtins) < builtinMemoCap && r.builtinSq+sq <= builtinMemoQubitsSq {
		r.builtins[key] = dev
		r.builtinSq += sq
	}
	r.mu.Unlock()
	return dev, nil
}

// Add registers a custom device. Names that collide with a builtin (or a
// parametric family instance) or an existing custom device are rejected
// with 409, so a cache key of (circuit, device name, ...) can never alias
// two different topologies.
func (r *Registry) Add(dev *arch.Device) *svcError {
	key := strings.ToLower(strings.TrimSpace(dev.Name))
	if key == "" {
		return errBadRequest("device name must be non-empty")
	}
	if _, err := arch.ByName(key); err == nil || errors.Is(err, arch.ErrTooLarge) {
		return errConflict("device %q shadows a builtin", dev.Name)
	}
	if err := dev.Validate(); err != nil {
		return errBadRequest("%v", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.custom[key]; ok {
		return errConflict("device %q already registered", dev.Name)
	}
	if len(r.custom) >= customCap {
		return errConflict("device store holds %d custom devices (max %d)", len(r.custom), customCap)
	}
	r.custom[key] = dev
	return nil
}

// infoOf renders one row of the GET /v1/devices listing (DeviceInfo is
// the api wire type, aliased in aliases.go).
func infoOf(dev *arch.Device, builtin bool) DeviceInfo {
	return DeviceInfo{
		Name:     dev.Name,
		Qubits:   dev.NumQubits,
		Couplers: len(dev.Edges),
		Diameter: dev.Diameter(),
		Builtin:  builtin,
	}
}

// List returns the builtin catalogue plus all custom devices, sorted by
// name within each group (builtins first).
func (r *Registry) List() []DeviceInfo {
	out := make([]DeviceInfo, 0, len(builtinNames))
	for _, name := range builtinNames {
		dev, err := arch.ByName(name)
		if err != nil {
			continue // unreachable for the vetted builtin list
		}
		out = append(out, infoOf(dev, true))
	}
	r.mu.RLock()
	customs := make([]*arch.Device, 0, len(r.custom))
	for _, dev := range r.custom {
		customs = append(customs, dev)
	}
	r.mu.RUnlock()
	sort.Slice(customs, func(i, j int) bool { return customs[i].Name < customs[j].Name })
	for _, dev := range customs {
		out = append(out, infoOf(dev, false))
	}
	return out
}

// CustomCount returns the number of uploaded devices (for /v1/stats).
func (r *Registry) CustomCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.custom)
}

// SetCalibration validates and stores a calibration snapshot for the device
// named by the request (builtin or custom), building its cost model once.
// Re-uploading replaces the previous snapshot — daily calibration refreshes
// are the normal cadence — and the changed hash re-keys the result cache, so
// stale cached mappings can never be served as calibrated results.
func (r *Registry) SetCalibration(deviceName string, snap *calib.Snapshot) (*Calibration, *svcError) {
	dev, err := r.Resolve(deviceName)
	if err != nil {
		return nil, deviceSvcError(err)
	}
	if err := snap.Validate(dev); err != nil {
		return nil, errBadRequest("%v", err)
	}
	cost, err := snap.CostModel(dev, 0)
	if err != nil {
		return nil, errBadRequest("%v", err)
	}
	cal := &Calibration{Snap: snap, Cost: cost, Hash: snap.Hash(), Device: dev.Name}
	key := strings.ToLower(dev.Name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.calib[key]; !exists && len(r.calib) >= calibCap {
		return nil, errConflict("calibration store holds %d devices (max %d); replace an existing one", len(r.calib), calibCap)
	}
	r.calib[key] = cal
	return cal, nil
}

// Calibration returns the stored calibration for a *resolved* device name
// (use the name of the device returned by Resolve, so aliases hit the same
// record).
func (r *Registry) Calibration(resolvedName string) (*Calibration, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	cal, ok := r.calib[strings.ToLower(resolvedName)]
	return cal, ok
}

// CalibrationCount returns the number of calibrated devices (for /v1/stats).
func (r *Registry) CalibrationCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.calib)
}

// withDurations returns dev with the duration map replaced, shallow-copying
// the device so concurrent requests with different presets never race on
// the shared registry entry. The copy aliases the immutable adjacency,
// distance and coordinate tables, so it is allocation-cheap.
func withDurations(dev *arch.Device, d arch.Durations) *arch.Device {
	cp := *dev
	cp.Durations = d
	return &cp
}

// durationsByName resolves a duration-preset name, ignoring case and
// surrounding space. The empty string keeps the device's own durations
// (builtins default to superconducting; custom devices keep whatever they
// were registered with).
func durationsByName(name string) (arch.Durations, bool) {
	return arch.DurationsByName(strings.ToLower(strings.TrimSpace(name)))
}
