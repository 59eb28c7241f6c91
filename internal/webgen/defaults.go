package webgen

import (
	"sync"

	"repro/internal/fingerprint"
	"repro/internal/rulespace"
)

// binCache memoises the ~160 catalog binaries: synthesising a module takes
// far longer than serving it, and corpora reuse the same assemblies across
// thousands of sites — exactly like the real web did.
var binCache sync.Map // key string -> []byte

func cachedBinary(spec fingerprint.FamilySpec, version int) []byte {
	key := spec.Name + "#" + string(rune('0'+version%10)) + string(rune('a'+version/10))
	if v, ok := binCache.Load(key); ok {
		return v.([]byte)
	}
	bin := fingerprint.BinaryFor(spec, version)
	binCache.Store(key, bin)
	return bin
}

// Default population-category mix, loosely web-shaped.
var defaultSiteCats = []weighted{
	{rulespace.CatBusiness, 0.16}, {rulespace.CatTech, 0.12},
	{rulespace.CatShopping, 0.10}, {rulespace.CatBlog, 0.09},
	{rulespace.CatEntMusic, 0.08}, {rulespace.CatEducation, 0.07},
	{rulespace.CatNews, 0.06}, {rulespace.CatGaming, 0.06},
	{rulespace.CatHealth, 0.05}, {rulespace.CatDynamic, 0.05},
	{rulespace.CatFinance, 0.04}, {rulespace.CatHosting, 0.04},
	{rulespace.CatPorn, 0.03}, {rulespace.CatSports, 0.03},
	{rulespace.CatTravel, 0.02},
}

// DefaultConfig returns the calibrated corpus configuration for a
// population, scaled to n sites. Calibration sources (see DESIGN.md):
// Figure 2 prevalence, Table 1 family mix, Table 2 overlap, Table 3
// category priors.
func DefaultConfig(tld TLD, n int, seed uint64) Config {
	cfg := Config{
		TLD:           tld,
		n:             n,
		seed:          seed,
		siteCats:      defaultSiteCats,
		deadFamilyMix: deadFamilyMix,
		adNetCats: []weighted{ // cpmstar is a *gaming* ad network
			{rulespace.CatGaming, 0.75}, {rulespace.CatEntMusic, 0.15},
			{rulespace.CatTech, 0.10},
		},
		TimeoutRate: 0.02,
	}
	switch tld {
	case TLDAlexa:
		// 737 mining sites and 993 NoCoin hits per ~950K domains (Tab. 2);
		// 82% of Wasm miners invisible to NoCoin.
		cfg.MinerWasmRate = 737.0 / 950_000
		cfg.DeadMinerRate = 764.0 / 950_000 // NoCoin hits without Wasm, minus ad network
		cfg.AdNetworkRate = 100.0 / 950_000
		cfg.BenignWasmRate = (796.0 - 737.0) / 950_000
		cfg.deadCats = []weighted{ // Table 3, Alexa "NoCoin" column shape
			{rulespace.CatGaming, 0.16}, {rulespace.CatEducation, 0.09},
			{rulespace.CatShopping, 0.08}, {rulespace.CatPorn, 0.07},
			{rulespace.CatTech, 0.06}, {rulespace.CatBusiness, 0.05},
			{rulespace.CatEntMusic, 0.05}, {rulespace.CatBlog, 0.04},
		}
		cfg.tlsBrokenRate = 0.28
		cfg.OfficialLoaderFrac = 0.26 // yields ≈129/737 NoCoin-visible (family-gated)
		cfg.familyMix = []weighted{   // Table 1, Alexa column
			{fingerprint.FamilyCoinhive, 311},
			{fingerprint.FamilySkencituer, 123},
			{fingerprint.FamilyCryptoloot, 103},
			{"UnknownWSS", 56},
			{fingerprint.FamilyNotgiven688, 46},
			{fingerprint.FamilyAuthedmine, 30},
			{fingerprint.FamilyWebStatiBid, 22},
			{fingerprint.FamilyCoinImp, 18},
			{fingerprint.FamilyWpMonero, 14},
			{fingerprint.FamilyDeepMiner, 14},
		}
		cfg.minerCats = []weighted{ // Table 3, Alexa "Signature" column
			{rulespace.CatPorn, 0.19}, {rulespace.CatTech, 0.08},
			{rulespace.CatFilesharing, 0.08}, {rulespace.CatEducation, 0.05},
			{rulespace.CatEntMusic, 0.05}, {rulespace.CatGaming, 0.04},
			{rulespace.CatBusiness, 0.04}, {rulespace.CatShopping, 0.03},
			{rulespace.CatDynamic, 0.03}, {rulespace.CatNews, 0.02},
		}
	case TLDOrg:
		// 1372 miners / 978 NoCoin hits per ~9M domains; 67% missed.
		cfg.MinerWasmRate = 1372.0 / 9_000_000
		cfg.DeadMinerRate = 468.0 / 9_000_000
		cfg.AdNetworkRate = 60.0 / 9_000_000
		cfg.BenignWasmRate = (1491.0 - 1372.0) / 9_000_000
		cfg.deadCats = []weighted{ // Table 3, .org "NoCoin" column shape
			{rulespace.CatGaming, 0.25}, {rulespace.CatBusiness, 0.08},
			{rulespace.CatEducation, 0.06}, {rulespace.CatPorn, 0.05},
			{rulespace.CatShopping, 0.04}, {rulespace.CatBlog, 0.04},
			{rulespace.CatHealth, 0.04}, {rulespace.CatTech, 0.03},
		}
		cfg.tlsBrokenRate = 0.52
		cfg.OfficialLoaderFrac = 0.465 // yields ≈450/1372 NoCoin-visible (family-gated)
		cfg.familyMix = []weighted{    // Table 1, .org column
			{fingerprint.FamilyCoinhive, 711},
			{fingerprint.FamilyCryptoloot, 183},
			{fingerprint.FamilyWebStatiBid, 120},
			{fingerprint.FamilyFreecontent, 108},
			{fingerprint.FamilyNotgiven688, 92},
			{"UnknownWSS", 60},
			{fingerprint.FamilyAuthedmine, 40},
			{fingerprint.FamilySkencituer, 24},
			{fingerprint.FamilyWpMonero, 18},
			{fingerprint.FamilyMonerise, 16},
		}
		cfg.minerCats = []weighted{ // Table 3, .org "Signature" column
			{rulespace.CatReligion, 0.09}, {rulespace.CatBusiness, 0.08},
			{rulespace.CatEducation, 0.08}, {rulespace.CatHealth, 0.07},
			{rulespace.CatTech, 0.06}, {rulespace.CatBlog, 0.04},
			{rulespace.CatGaming, 0.03}, {rulespace.CatDynamic, 0.03},
			{rulespace.CatShopping, 0.02},
		}
	case TLDCom:
		// Fig. 2: ~6.7K NoCoin hits per 116M; coinhive-dominated.
		cfg.MinerWasmRate = 8_000.0 / 116_000_000
		cfg.DeadMinerRate = 6_600.0 / 116_000_000
		cfg.AdNetworkRate = 800.0 / 116_000_000
		cfg.BenignWasmRate = 700.0 / 116_000_000
		cfg.deadCats = defaultSiteCats
		cfg.tlsBrokenRate = 0.30
		cfg.OfficialLoaderFrac = 0.30
		cfg.familyMix = comNetFamilyMix
		cfg.minerCats = defaultSiteCats
	case TLDNet:
		cfg.MinerWasmRate = 800.0 / 12_000_000
		cfg.DeadMinerRate = 590.0 / 12_000_000
		cfg.AdNetworkRate = 80.0 / 12_000_000
		cfg.BenignWasmRate = 70.0 / 12_000_000
		cfg.deadCats = defaultSiteCats
		cfg.tlsBrokenRate = 0.30
		cfg.OfficialLoaderFrac = 0.30
		cfg.familyMix = comNetFamilyMix
		cfg.minerCats = defaultSiteCats
	}
	return cfg
}

// deadFamilyMix shapes Fig. 2's script-family bars: the stock-loader
// population is overwhelmingly coinhive.
var deadFamilyMix = []weighted{
	{fingerprint.FamilyCoinhive, 0.85},
	{fingerprint.FamilyAuthedmine, 0.06},
	{fingerprint.FamilyWpMonero, 0.04},
	{fingerprint.FamilyCryptoloot, 0.03},
	{fingerprint.FamilyDeepMiner, 0.02},
}

var comNetFamilyMix = []weighted{
	{fingerprint.FamilyCoinhive, 0.62},
	{fingerprint.FamilyAuthedmine, 0.07},
	{fingerprint.FamilyWpMonero, 0.06},
	{fingerprint.FamilyCryptoloot, 0.06},
	{fingerprint.FamilyCoinImp, 0.05},
	{"UnknownWSS", 0.05},
	{fingerprint.FamilyNotgiven688, 0.03},
	{fingerprint.FamilyWebStatiBid, 0.03},
	{fingerprint.FamilyDeepMiner, 0.02},
	{fingerprint.FamilyMonerise, 0.01},
}
