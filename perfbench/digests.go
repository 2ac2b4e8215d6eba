package main

// panelSeed is one report seed with the SHA-256 of its report.
type panelSeed struct {
	seed   int64
	sha256 string
}

// reportPanel holds the report seeds the report workload renders, with
// the digest of each report as experiments.WriteAll renders it
// (byte-identical at every worker count). The digest at 20141208 is that
// of internal/experiments/testdata/report.golden; the others were recorded
// when the benchmark was added, so any change to report output fails the
// report workload.
var reportPanel = []panelSeed{
	{20141208, "aab77e3f8f6429204783bd4cc8218d0d59a2edf9b4cb10400912aaaed998004a"},
	{1, "2498fe2c9d8e73f02ac52c363c850d72c9ebd27191dae714efcffdc9e6f673ed"},
	{2, "c5f15c3b887032591fb0f8d7af6b49fe1f7d1d889a3428f96a32ae584248de52"},
	{3, "ca7909d8e7ff751521866c91077aafccc31771eb5c7b1c2bebfa3ffe2f468a62"},
	{4, "b58f39093d7f395af9d4a15a7b5b1703491d9b10a3bd4cf38eccba59d30a111f"},
	{5, "635c21e4d8048f8f6d8b40f74fd53c202cbe070695961fd200ff85ba1865dc59"},
	{6, "ef99ac75b7e43c6cf19fecb9425b83a4d7bd3424544eff02d8634279bb493718"},
	{7, "1ef9d42ef58c686abbc6b21b3e1ebc1718f3cb22e567c8f0d86dcd0fa6aa52eb"},
	{8, "87624bced082413d9a2c5ffe266d7626e36d13c7511e721e4af21b0c2d7348c1"},
	{9, "b1a623e627ffc26366c11754d212326495609fcc0a027c7e4efb18e9ef900491"},
	{10, "9ef26dafed145f8ad4211822355e554eb186719df098a3bad4594e550cd084bd"},
	{11, "f42efc8289e501549c6c91a4714465813f504ea2e6d10f275df0d2436e604b0e"},
	{12, "fee39d15f068f092971e3bba5c2b0cd73a219ffdf518811dd3c6c19bb97e455b"},
	{13, "545ae0da67d03fb20ea70773b953c28babd38ae81b4ed05a3d56ef807829486e"},
	{14, "5f1ae6ad5879036aa0198f09aa94eca74d3db810c81f6c1d56a57bb5a5c76c7d"},
	{42, "16c1420056179937c3d794872164bd4e042ef57ce5dfccd7247363b335165fc3"},
}
