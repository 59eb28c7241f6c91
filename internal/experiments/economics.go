package experiments

import (
	"fmt"
	"strings"
)

// The paper's closing economics (§4.2 takeaway and §6): Coinhive turns over
// "Moneros worth 150,000 USD per month" at 120 USD/XMR, yet "it remains
// questionable whether mining is a feasible ad alternative" — a question
// this runner quantifies per visitor-hour, the unit ad revenue is priced in.

// EconomicsInput parameterises the revenue model.
type EconomicsInput struct {
	// visitorHashRate is one browser's rate (paper: 20–100 H/s).
	visitorHashRate float64
	// networkHashRate and BlockReward describe the chain (462 MH/s, ~4.7 XMR).
	networkHashRate float64
	blockRewardXMR  float64
	// xmrUSD is the exchange rate (paper: 120 USD at writing, 400 peak).
	xmrUSD float64
	// poolFee is the service cut (Coinhive: 0.30).
	poolFee float64
	// adRPMUSD is the comparison point: ad revenue per 1000 impressions.
	adRPMUSD float64
	// pageViewMinutes is the average time a visitor mines per impression.
	pageViewMinutes float64
}

// PaperEconomics returns the paper-era constants.
func PaperEconomics() EconomicsInput {
	return EconomicsInput{
		visitorHashRate: 20,
		networkHashRate: NetworkHashRate,
		blockRewardXMR:  4.7,
		xmrUSD:          120,
		poolFee:         0.30,
		adRPMUSD:        2.0, // a typical display-ad RPM of the era
		pageViewMinutes: 3,
	}
}

// EconomicsResult is the derived revenue comparison.
type EconomicsResult struct {
	input EconomicsInput
	// usdPerVisitorHour is the site owner's take for one visitor mining
	// for one hour.
	usdPerVisitorHour float64
	// usdPer1000Views is the mining equivalent of ad RPM.
	usdPer1000Views float64
	// advantageRatio is mining revenue over ad revenue (>1: mining wins).
	advantageRatio float64
	// poolMonthlyUSD reproduces the paper's "150,000 USD per month" for the
	// whole service at the measured 5.5 MH/s.
	poolMonthlyUSD float64
}

// RunEconomics evaluates the model.
func RunEconomics(in EconomicsInput) EconomicsResult {
	blocksPerSecond := 1.0 / 120
	networkXMRPerSecond := blocksPerSecond * in.blockRewardXMR
	// A visitor's expected share of emission is proportional to their share
	// of the network hash rate.
	visitorXMRPerHour := networkXMRPerSecond * 3600 * in.visitorHashRate / in.networkHashRate
	ownerUSDPerHour := visitorXMRPerHour * in.xmrUSD * (1 - in.poolFee)
	usdPer1000 := ownerUSDPerHour * in.pageViewMinutes / 60 * 1000

	poolXMRPerMonth := networkXMRPerSecond * 86400 * 30 * (PoolHashRate / in.networkHashRate)
	res := EconomicsResult{
		input:             in,
		usdPerVisitorHour: ownerUSDPerHour,
		usdPer1000Views:   usdPer1000,
		poolMonthlyUSD:    poolXMRPerMonth * in.xmrUSD,
	}
	if in.adRPMUSD > 0 {
		res.advantageRatio = usdPer1000 / in.adRPMUSD
	}
	return res
}

// Render prints the comparison.
func (r EconomicsResult) Render() string {
	var b strings.Builder
	b.WriteString("§4.2/§6 — mining-vs-ads economics\n")
	fmt.Fprintf(&b, "visitor at %.0f H/s of a %.0f MH/s network, %.2f XMR blocks, %.0f USD/XMR\n",
		r.input.visitorHashRate, r.input.networkHashRate/1e6, r.input.blockRewardXMR, r.input.xmrUSD)
	fmt.Fprintf(&b, "site owner earns %.6f USD per visitor-hour (after the %.0f%% pool fee)\n",
		r.usdPerVisitorHour, r.input.poolFee*100)
	fmt.Fprintf(&b, "at %.0f-minute page views: %.4f USD per 1000 impressions vs %.2f USD ad RPM\n",
		r.input.pageViewMinutes, r.usdPer1000Views, r.input.adRPMUSD)
	fmt.Fprintf(&b, "mining/ads advantage ratio: %.3f (the paper's scepticism quantified)\n", r.advantageRatio)
	fmt.Fprintf(&b, "whole-service turnover at 5.5 MH/s: %.0f USD/month (paper: ~150,000)\n", r.poolMonthlyUSD)
	return b.String()
}
