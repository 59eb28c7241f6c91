package wasm

// valType is a WebAssembly value type.
type valType byte

// MVP value types.
const (
	i32 valType = 0x7F
	i64 valType = 0x7E
	f32 valType = 0x7D
	f64 valType = 0x7C
)

func (v valType) String() string {
	switch v {
	case i32:
		return "i32"
	case i64:
		return "i64"
	case f32:
		return "f32"
	case f64:
		return "f64"
	default:
		return "valtype(?)"
	}
}

// Section IDs of the MVP binary format.
const (
	secCustom   = 0
	secType     = 1
	secImport   = 2
	secFunction = 3
	secTable    = 4
	secMemory   = 5
	secGlobal   = 6
	secExport   = 7
	secStart    = 8
	secElement  = 9
	secCode     = 10
	secData     = 11
)

// External kinds used by imports and exports.
const (
	ExtFunc   = 0
	extMemory = 2
)

// funcType is a function signature.
type funcType struct {
	params  []valType
	results []valType
}

// limits describe a memory's page bounds (64 KiB pages).
type limits struct {
	min    uint32
	max    uint32
	hasMax bool
}

// Import declares an imported entity.
type Import struct {
	Module string
	Name   string
	Kind   byte
	Type   uint32 // ExtFunc: type index
	mem    limits // extMemory
}

// Export makes an entity visible to the host.
type Export struct {
	Name  string
	Kind  byte
	Index uint32
}

// global is a module global variable.
type global struct {
	typ     valType
	mutable bool
	init    []byte // constant-expression bytes including the end opcode
}

// Code is a function body: local declarations plus raw instruction bytes
// (terminated by the 0x0B end opcode).
type Code struct {
	locals []localDecl
	Body   []byte
}

// localDecl declares count locals of the same type.
type localDecl struct {
	count uint32
	typ   valType
}

// dataSegment initialises linear memory.
type dataSegment struct {
	memIndex uint32
	offset   []byte // constant-expression bytes including end
	init     []byte
}

// Module is a decoded (or under-construction) WebAssembly module.
type Module struct {
	types     []funcType
	imports   []Import
	functions []uint32 // type index per module-defined function
	memories  []limits
	globals   []global
	Exports   []Export
	Codes     []Code
	data      []dataSegment
	// Names holds function names from the "name" custom section, keyed by
	// function index (imports included in the index space).
	Names map[uint32]string
}

// numImportedFuncs counts imported functions, which precede module-defined
// functions in the index space.
func (m *Module) numImportedFuncs() int {
	n := 0
	for _, im := range m.imports {
		if im.Kind == ExtFunc {
			n++
		}
	}
	return n
}

// memoryPages returns the minimum page count of the first memory (0 if the
// module declares none). Miners are recognisable by large scratchpad
// memories: CryptoNight needs 2 MiB = 32 pages before heap overhead.
func (m *Module) memoryPages() uint32 {
	if len(m.memories) == 0 {
		return 0
	}
	return m.memories[0].min
}
