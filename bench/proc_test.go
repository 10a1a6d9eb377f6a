package main

import "testing"

func TestParseStatCPU(t *testing.T) {
	// utime 1234 and stime 66 ticks; the comm field holds spaces and a ')'.
	stat := "4242 (quorum d) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 1234 66 0 0 20 0 7 0 1000 1 2 3\n"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 13.0; got != want {
		t.Errorf("parseStatCPU = %v s, want %v s", got, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 eleven 12 13"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) succeeded", bad)
		}
	}
}

func TestParseStatusHWM(t *testing.T) {
	status := "Name:\tquorumd\nVmPeak:\t 1300000 kB\nVmHWM:\t  143360 kB\nVmRSS:\t  100000 kB\n"
	got, err := parseStatusHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if want := 140.0; got != want {
		t.Errorf("parseStatusHWM = %v MB, want %v MB", got, want)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tmany kB\n"} {
		if _, err := parseStatusHWM(bad); err == nil {
			t.Errorf("parseStatusHWM(%q) succeeded", bad)
		}
	}
}

// The hand-written response parser has to cope with both framings
// net/http produces, Content-Length and chunked, and has to say
// "incomplete" for every proper prefix of a response: the poller calls
// it after each read.
func TestParseResponseBothFramings(t *testing.T) {
	chunked := "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nEtag: \"v7\"\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"5\r\nhello\r\n6; ext=1\r\n world\r\n0\r\nX-Trailer: 1\r\n\r\n"
	fixed := "HTTP/1.1 429 Too Many Requests\r\ncontent-length: 3\r\n\r\nbye"
	for _, wire := range []string{chunked, fixed} {
		for n := 0; n < len(wire); n++ {
			if _, consumed, err := parseResponse([]byte(wire[:n])); err != nil || consumed != 0 {
				t.Fatalf("prefix %q parsed as complete (%d bytes, err %v)", wire[:n], consumed, err)
			}
		}
	}
	r, consumed, err := parseResponse([]byte(chunked + fixed))
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != 200 || r.ETag != `"v7"` || string(r.Body) != "hello world" || consumed != len(chunked) {
		t.Errorf("chunked response parsed as %d %s %q, %d of %d bytes", r.Status, r.ETag, r.Body, consumed, len(chunked))
	}
	r, consumed, err = parseResponse([]byte(fixed))
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != 429 || r.ETag != "" || string(r.Body) != "bye" || consumed != len(fixed) {
		t.Errorf("Content-Length response parsed as %d %s %q, %d of %d bytes", r.Status, r.ETag, r.Body, consumed, len(fixed))
	}
	if _, _, err := parseResponse([]byte("HTTP/1.1 200 OK\r\n\r\n")); err == nil {
		t.Error("a response without framing parsed")
	}
	if got := versionOfETag(`"v7"`); got != 7 {
		t.Errorf("versionOfETag = %d, want 7", got)
	}
	if got := versionOfETag(`W/"v7"`); got != 0 {
		t.Errorf("versionOfETag of a weak validator = %d, want 0", got)
	}
}
