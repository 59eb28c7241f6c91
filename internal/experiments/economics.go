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
	// VisitorHashRate is one browser's rate (paper: 20–100 H/s).
	VisitorHashRate float64
	// NetworkHashRate and BlockReward describe the chain (462 MH/s, ~4.7 XMR).
	NetworkHashRate float64
	BlockRewardXMR  float64
	// XMRUSD is the exchange rate (paper: 120 USD at writing, 400 peak).
	XMRUSD float64
	// PoolFee is the service cut (Coinhive: 0.30).
	PoolFee float64
	// AdRPMUSD is the comparison point: ad revenue per 1000 impressions.
	AdRPMUSD float64
	// PageViewMinutes is the average time a visitor mines per impression.
	PageViewMinutes float64
}

// PaperEconomics returns the paper-era constants.
func PaperEconomics() EconomicsInput {
	return EconomicsInput{
		VisitorHashRate: 20,
		NetworkHashRate: NetworkHashRate,
		BlockRewardXMR:  4.7,
		XMRUSD:          120,
		PoolFee:         0.30,
		AdRPMUSD:        2.0, // a typical display-ad RPM of the era
		PageViewMinutes: 3,
	}
}

// EconomicsResult is the derived revenue comparison.
type EconomicsResult struct {
	Input EconomicsInput
	// USDPerVisitorHour is the site owner's take for one visitor mining
	// for one hour.
	USDPerVisitorHour float64
	// USDPer1000Views is the mining equivalent of ad RPM.
	USDPer1000Views float64
	// AdvantageRatio is mining revenue over ad revenue (>1: mining wins).
	AdvantageRatio float64
	// PoolMonthlyUSD reproduces the paper's "150,000 USD per month" for the
	// whole service at the measured 5.5 MH/s.
	PoolMonthlyUSD float64
}

// RunEconomics evaluates the model.
func RunEconomics(in EconomicsInput) EconomicsResult {
	blocksPerSecond := 1.0 / 120
	networkXMRPerSecond := blocksPerSecond * in.BlockRewardXMR
	// A visitor's expected share of emission is proportional to their share
	// of the network hash rate.
	visitorXMRPerHour := networkXMRPerSecond * 3600 * in.VisitorHashRate / in.NetworkHashRate
	ownerUSDPerHour := visitorXMRPerHour * in.XMRUSD * (1 - in.PoolFee)
	usdPer1000 := ownerUSDPerHour * in.PageViewMinutes / 60 * 1000

	poolXMRPerMonth := networkXMRPerSecond * 86400 * 30 * (PoolHashRate / in.NetworkHashRate)
	res := EconomicsResult{
		Input:             in,
		USDPerVisitorHour: ownerUSDPerHour,
		USDPer1000Views:   usdPer1000,
		PoolMonthlyUSD:    poolXMRPerMonth * in.XMRUSD,
	}
	if in.AdRPMUSD > 0 {
		res.AdvantageRatio = usdPer1000 / in.AdRPMUSD
	}
	return res
}

// Render prints the comparison.
func (r EconomicsResult) Render() string {
	var b strings.Builder
	b.WriteString("§4.2/§6 — mining-vs-ads economics\n")
	fmt.Fprintf(&b, "visitor at %.0f H/s of a %.0f MH/s network, %.2f XMR blocks, %.0f USD/XMR\n",
		r.Input.VisitorHashRate, r.Input.NetworkHashRate/1e6, r.Input.BlockRewardXMR, r.Input.XMRUSD)
	fmt.Fprintf(&b, "site owner earns %.6f USD per visitor-hour (after the %.0f%% pool fee)\n",
		r.USDPerVisitorHour, r.Input.PoolFee*100)
	fmt.Fprintf(&b, "at %.0f-minute page views: %.4f USD per 1000 impressions vs %.2f USD ad RPM\n",
		r.Input.PageViewMinutes, r.USDPer1000Views, r.Input.AdRPMUSD)
	fmt.Fprintf(&b, "mining/ads advantage ratio: %.3f (the paper's scepticism quantified)\n", r.AdvantageRatio)
	fmt.Fprintf(&b, "whole-service turnover at 5.5 MH/s: %.0f USD/month (paper: ~150,000)\n", r.PoolMonthlyUSD)
	return b.String()
}
