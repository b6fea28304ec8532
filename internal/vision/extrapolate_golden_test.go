package vision

// Golden values of Run(b, bs, 42) captured before Run was split into
// Sample and Extrapolate, when it executed and scaled each batch in one
// pass. The composition must reproduce them bit for bit.

// goldenBatches are the pinned batch sizes: every sample count (1-3),
// the smallest corpus batch and its odd neighbour, and serve-cold's range.
var goldenBatches = []int{1, 2, 3, 20, 21, 97, 319, 320}

// goldenFingerprints[benchmark][batch] is Run(b, batch, 42).Workload.Fingerprint().
var goldenFingerprints = map[string]map[int]uint64{
	"fast":    {1: 0x9af60cf3e3ddc6a6, 2: 0x743bd2804fcda889, 3: 0xebb43ea39e8e81cd, 20: 0x7664dad09611bfa0, 21: 0xa540b8150bb7b47b, 97: 0xc3ee6008b204309c, 319: 0x92264d9136db66b2, 320: 0xd68b879d5be1388b},
	"hog":     {1: 0xd578aae92be2eaa8, 2: 0x4ec95ca0c51e5641, 3: 0xb8c59f609c4b41c6, 20: 0xc02098c2e7306144, 21: 0x1b2246dcdf674da4, 97: 0x9975ffb5cd1dc2ad, 319: 0x902fdd7bd32c32af, 320: 0x3df753d39888fdfe},
	"knn":     {1: 0xb266d835ca34b707, 2: 0x7b784046db44d2c4, 3: 0xfbcda3849f93ced5, 20: 0x806736a0a8ebf498, 21: 0xaf2e9b8fc88d266a, 97: 0x483b161a7b675488, 319: 0xfc3e44c1d186af, 320: 0xec40ece9dcd6545},
	"objrec":  {1: 0x1152504c686ea8ac, 2: 0x1f98eaee2f948c85, 3: 0x9af020283d1acc28, 20: 0x9fc6a7a029bfac24, 21: 0x8eeac5129d64a980, 97: 0x326d046fcbd852f8, 319: 0x782d471f7a8bc937, 320: 0x449fb2fecbe96a46},
	"orb":     {1: 0x808b3273c9660dbe, 2: 0xa293bbfd7b038d4a, 3: 0xc3b4febc0cea139e, 20: 0x23a049aed96af77d, 21: 0xbf01d56b721d3b55, 97: 0x4654858d31a5e361, 319: 0xc21e07ec4dfdf6b5, 320: 0xd3571d2143ef9702},
	"sift":    {1: 0x3b7f2fae0098a847, 2: 0x1961194951edf347, 3: 0xd2e607501eba5fd, 20: 0x2cff2c4057f665a8, 21: 0xd42a8034770108ef, 97: 0x94de80953192f8ae, 319: 0xb9cee9ebaca4252f, 320: 0x4270ea91c1b611c5},
	"surf":    {1: 0xc8ff925094dd9edb, 2: 0x4cdc03a887736638, 3: 0xa80513aa78bdf9f2, 20: 0xbb138f696c4394ba, 21: 0xc2ff44a21e27b2b, 97: 0x5b844568f4c7741, 319: 0xe33817b3669f2eec, 320: 0x99520f028da9bd0a},
	"svm":     {1: 0xfeeef3e146262c80, 2: 0x283342ce0a6b5961, 3: 0x80dc2765a75216c6, 20: 0x8345c87cfafe2f06, 21: 0xffea5e6e719def82, 97: 0x7e04904118e5512c, 319: 0x7e0708efdf748fc6, 320: 0x454db91ed16aa7f9},
	"facedet": {1: 0x4b807c285bb3d5ff, 2: 0x58550f4e1e09bc85, 3: 0xfbdda62476081688, 20: 0x485333baef416041, 21: 0xe84d2bab3dc72d7f, 97: 0xcf0a0e0d140ef362, 319: 0xe3196297fe7b3ad3, 320: 0x1183e17ad4b0292d},
}

// goldenSummaries[benchmark][n] is the Summary of Run(b, batch, 42) for
// every pinned batch with SampleCount(batch) == n.
var goldenSummaries = map[string]map[int]map[string]float64{
	"fast": {
		1: {"corners": 44},
		2: {"corners": 31},
		3: {"corners": 30.666666666666668},
	},
	"hog": {
		1: {"blocks": 121, "descEnergy": 120.99999999999959},
		2: {"blocks": 121, "descEnergy": 120.99999999999912},
		3: {"blocks": 121, "descEnergy": 120.99999999999947},
	},
	"knn": {
		1: {"queries": 121, "voteCheck": 273},
		2: {"queries": 121, "voteCheck": 483},
		3: {"queries": 121, "voteCheck": 693},
	},
	"objrec": {
		1: {"matches": 5, "voteCheck": 3},
		2: {"matches": 2.5, "voteCheck": 3},
		3: {"matches": 3.3333333333333335, "voteCheck": 5},
	},
	"orb": {
		1: {"keypoints": 73, "matches": 0},
		2: {"keypoints": 54, "matches": 27.5},
		3: {"keypoints": 52.666666666666664, "matches": 27.666666666666668},
	},
	"sift": {
		1: {"descriptors": 7, "keypoints": 7},
		2: {"descriptors": 6, "keypoints": 6},
		3: {"descriptors": 5.333333333333333, "keypoints": 5.333333333333333},
	},
	"surf": {
		1: {"descSum": 22.7035646923692, "keypoints": 7},
		2: {"descSum": 19.347369683423185, "keypoints": 7},
		3: {"descSum": 15.488877988458981, "keypoints": 5.666666666666667},
	},
	"svm": {
		1: {"supportVectors": 78, "trainAccuracy": 0.90625},
		2: {"supportVectors": 78, "trainAccuracy": 0.90625},
		3: {"supportVectors": 78, "trainAccuracy": 0.90625},
	},
	"facedet": {
		1: {"detections": 329},
		2: {"detections": 414},
		3: {"detections": 367},
	},
}
