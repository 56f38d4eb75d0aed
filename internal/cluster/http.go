package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// trimURL normalises a node base URL for path concatenation.
func trimURL(u string) string { return strings.TrimRight(u, "/") }

// getJSON fetches url and decodes its 200 body into out.
func getJSON(ctx context.Context, c *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, readError(resp))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// readError summarises a non-200 response: status plus a capped slice of the
// body (the handlers here and in internal/api put the message there).
func readError(resp *http.Response) string {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	msg := strings.TrimSpace(string(body))
	if msg == "" {
		return resp.Status
	}
	return fmt.Sprintf("%s: %s", resp.Status, msg)
}
